#![forbid(unsafe_code)]

pub fn nothing() {}
