//! Deterministic fuzzing of the geometry codecs: WKT text, WKB bytes,
//! and the native ("gserialized") format. Every input must produce `Ok`
//! or a typed `GeoError` — never a panic. Crashers are persisted under
//! `tests/corpus/geo/`.

use mduck_geo::gserialized::{from_native, peek_bbox, to_native};
use mduck_geo::wkb::{from_wkb, to_wkb};
use mduck_geo::wkt::parse_wkt;
use mduck_integration::fuzz;
use mduck_prng::{RngCore, RngExt, SeedableRng, StdRng};

const CASES: usize = 1500;

const WKT_SEEDS: &[&str] = &[
    "POINT(1 2)",
    "POINT(-1.5e10 2.25e-10)",
    "LINESTRING(0 0, 1 1, 2 0)",
    "POLYGON((0 0, 10 0, 10 10, 0 10, 0 0))",
    "POLYGON((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))",
    "MULTIPOINT(1 1, 2 2)",
    "MULTIPOINT((1 1), (2 2))",
    "MULTILINESTRING((0 0, 1 1), (2 2, 3 3))",
    "MULTIPOLYGON(((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))",
    "GEOMETRYCOLLECTION(POINT(1 2), LINESTRING(0 0, 1 1))",
    "SRID=4326;POINT(13.4 52.5)",
    "SRID=3857;POLYGON((0 0, 1 0, 1 1, 0 1, 0 0))",
    "POLYGON((-1e999 0, 1e999 0, 0 1e999, -1e999 0))",
    "POINT(1e999 -1e999)",
];

fn wkt_valid_geometries() -> Vec<mduck_geo::Geometry> {
    WKT_SEEDS.iter().filter_map(|s| parse_wkt(s).ok()).collect()
}

#[test]
fn fuzz_wkt_never_panics() {
    let replayed = fuzz::replay_corpus("geo-wkt", |data| {
        let s = String::from_utf8_lossy(data).into_owned();
        fuzz::check_no_panic("geo-wkt", "replay", data, || {
            let _ = parse_wkt(&s);
        });
    });
    println!("replayed {replayed} corpus inputs");

    let mut rng = StdRng::seed_from_u64(0x6E0_77E5);
    for i in 0..CASES {
        let input = if rng.random_bool(0.8) {
            let seed = rng.choose(WKT_SEEDS).copied().unwrap_or("POINT(1 2)");
            let bytes = fuzz::mutate(&mut rng, seed.as_bytes());
            String::from_utf8_lossy(&bytes).into_owned()
        } else {
            let n = rng.random_range(0..80usize);
            (0..n)
                .map(|_| {
                    *rng.choose(b"POINTLIESRGUMYC()[],;=. -+0123456789e").unwrap_or(&b'(') as char
                })
                .collect()
        };
        let label = format!("wkt-{i}");
        fuzz::check_no_panic("geo-wkt", &label, input.as_bytes(), || {
            // Round-trip what parses: printing a parsed geometry must not
            // panic either.
            if let Ok(g) = parse_wkt(&input) {
                let _ = mduck_geo::wkt::to_wkt(&g, Some(6));
            }
        });
    }
}

#[test]
fn fuzz_wkb_and_native_never_panic() {
    let replayed = fuzz::replay_corpus("geo-bin", |data| {
        fuzz::check_no_panic("geo-bin", "replay", data, || {
            let _ = from_wkb(data);
            let _ = from_native(data);
            let _ = peek_bbox(data);
        });
    });
    println!("replayed {replayed} corpus inputs");

    let valid_wkb: Vec<Vec<u8>> = wkt_valid_geometries().iter().map(to_wkb).collect();
    let valid_native: Vec<Vec<u8>> = wkt_valid_geometries().iter().map(to_native).collect();

    let mut rng = StdRng::seed_from_u64(0x9E0_B17E5);
    for i in 0..CASES {
        let bytes = match rng.random_range(0..4u32) {
            // Pure noise.
            0 => {
                let n = rng.random_range(0..256usize);
                let mut b = vec![0u8; n];
                rng.fill_bytes(&mut b);
                b
            }
            // Truncated valid encodings (the classic WKB crash).
            1 => {
                let v = rng.choose(&valid_wkb).cloned().unwrap_or_default();
                let cut = rng.random_range(0..=v.len());
                v[..cut].to_vec()
            }
            2 => {
                let v = rng.choose(&valid_native).cloned().unwrap_or_default();
                let cut = rng.random_range(0..=v.len());
                v[..cut].to_vec()
            }
            // Bit-flipped valid encodings: plausible headers, hostile
            // counts and types.
            _ => {
                let v = if rng.random_bool(0.5) {
                    rng.choose(&valid_wkb).cloned().unwrap_or_default()
                } else {
                    rng.choose(&valid_native).cloned().unwrap_or_default()
                };
                fuzz::mutate(&mut rng, &v)
            }
        };
        let label = format!("bin-{i}");
        fuzz::check_no_panic("geo-bin", &label, &bytes, || {
            let _ = from_wkb(&bytes);
            let _ = from_native(&bytes);
            let _ = peek_bbox(&bytes);
        });
    }
}
