//! Regenerates **Table 1**: the template-type coverage matrix, checked
//! against the live type registry (a type only prints as supported if it
//! is actually registered and parseable).

#![forbid(unsafe_code)]

use mduck_bench::render_table;
use mduck_sql::Registry;

fn main() {
    let mut reg = Registry::with_builtins();
    mobilityduck::register_all(&mut reg);
    let mut rows = Vec::new();
    for (base, cols) in mobilityduck::type_coverage() {
        let mut row = vec![base.to_string()];
        for slot in cols {
            row.push(match slot {
                Some(name) => {
                    assert!(reg.resolve_type(name).is_ok(), "{name} not registered");
                    name.to_string()
                }
                None => "—".to_string(),
            });
        }
        rows.push(row);
    }
    println!("Table 1: template types supported in MobilityDuck (— : not applicable / not implemented)\n");
    println!("{}", render_table(&["base type", "set", "span", "spanset", "temporal"], &rows));
    println!("Registered scalar functions: {}", reg.scalar_names().len());
    println!("Registered type aliases:     {}", reg.type_names().len());
}
