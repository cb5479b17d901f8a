//! # berlinmod — the BerlinMOD-Hanoi benchmark (§5)
//!
//! A from-scratch reproduction of the paper's benchmark kit: a synthetic
//! Hanoi-like road network with the city's 12 urban districts
//! ([`network`]), the BerlinMOD trip-generation model calibrated to the
//! paper's Tables 2–3 ([`trips`]), dataset assembly and loading into both
//! engines ([`dataset`]), the 17 benchmark queries and the §6.2 use-case
//! analytics ([`queries`]), and GeoJSON exports ([`geojson`]).

#![forbid(unsafe_code)]

pub mod dataset;
pub mod geojson;
pub mod network;
pub mod queries;
pub mod trips;

pub use dataset::BerlinModData;
pub use network::{RoadNetwork, NETWORK_SRID};
pub use queries::{benchmark_queries, usecase_queries};
pub use trips::{generate_trips, ScaleFactor, Trip, Vehicle};
