//! Regenerates **Figure 1**: the execution plan DuckDB produces for the
//! §4.4 overlap query once the optimizer has injected the TRTREE index
//! scan.

#![forbid(unsafe_code)]

fn main() {
    let db = quackdb::Database::new();
    mobilityduck::load(&db);
    db.execute_script(
        "CREATE TABLE test_geo(\"times\" timestamptz, \"box\" stbox);
         CREATE INDEX rtree_stbox ON test_geo USING TRTREE(box);
         INSERT INTO test_geo
         SELECT ('2025-08-11 12:00:00'::timestamp + INTERVAL (i || ' minutes')) AS times,
                ('STBOX X((' || (i * 1.0)::DECIMAL(10,2) || ',' || (i * 1.0)::DECIMAL(10,2) ||
                 '),(' || (i * 1.0 + 0.5)::DECIMAL(10,2) || ',' || (i * 1.0 + 0.5)::DECIMAL(10,2) ||
                 '))')::stbox
         FROM generate_series(1, 1000) AS t(i);",
    )
    .expect("setup");
    let sql = "SELECT * FROM test_geo WHERE box && STBOX('STBOX X((1000.0,1000.0),(1100.0,1100.0))')";
    println!("Figure 1: execution plan of the §4.4 overlap query\n");
    println!("EXPLAIN {sql};\n");
    let plan = db.execute(&format!("EXPLAIN {sql}")).expect("explain");
    println!("{}", plan.rows[0][0]);
    let result = db.execute(sql).expect("query");
    println!("(query returns {} row(s))", result.rows.len());
}
