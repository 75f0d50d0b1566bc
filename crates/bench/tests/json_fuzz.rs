//! Deterministic fuzz coverage for the strict JSON parser.
//!
//! Every daemon request line goes through [`json::parse`], and the
//! integration tests read every `--json` artefact back with it, so
//! malformed bytes must come back as a typed [`json::JsonError`], never
//! a panic. This suite drives the parser with an exhaustive, seed-free
//! mutation set over one artefact-shaped document (nested objects, float
//! arrays with exponents, `\uXXXX` surrogate-pair escapes, `null`s):
//!
//! * every prefix truncation;
//! * every single-bit flip that is still valid UTF-8;
//! * every byte substituted by a JSON-significant character (`"`, `\`,
//!   `{`, `[`, `-`, `e`) or NUL;
//! * nesting at [`json::MAX_DEPTH`] and one level past it.
//!
//! Every document the parser accepts must survive a render/parse round
//! trip unchanged.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lowvcc_bench::json::{self, array, number, object, string, Value};

/// Bytes that change the meaning of a JSON document wherever they land.
const SUBSTITUTES: [u8; 7] = [b'"', b'\\', b'{', b'[', b'-', b'e', 0];

/// An ASCII document shaped like a sweep artefact.
fn artefact() -> String {
    let point = |vcc: f64, gain: f64| {
        object(&[
            ("vcc_mv", number(vcc)),
            ("freq_gain", number(gain)),
            ("edp", "null".to_string()),
        ])
    };
    object(&[
        ("suite", string("quick\t7x10k")),
        // Surrogate pair (U+1F50B) plus a BMP escape, written raw: the
        // emitter never produces `\u` escapes above U+001F.
        ("label", r#""Vcc \ud83d\udd0b \u00B5s""#.to_string()),
        (
            "scalars",
            array(&[
                "6.02e23".to_string(),
                "-1.5E-7".to_string(),
                "2.5e+300".to_string(),
                number(0.125),
                "null".to_string(),
            ]),
        ),
        (
            "sweep",
            object(&[
                ("baseline", array(&[point(700.0, 1.0), point(500.0, 1.57)])),
                ("iraw", object(&[("points", array(&[point(400.0, 1.99)]))])),
            ]),
        ),
    ])
}

/// Every mutation of `doc` the suite feeds the parser.
fn mutations(doc: &str) -> Vec<String> {
    let bytes = doc.as_bytes();
    let mut out: Vec<String> = (0..bytes.len()).map(|n| doc[..n].to_string()).collect();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 1 << bit;
            out.extend(String::from_utf8(flipped));
        }
        for &sub in &SUBSTITUTES {
            let mut swapped = bytes.to_vec();
            swapped[i] = sub;
            out.extend(String::from_utf8(swapped));
        }
    }
    out
}

/// Parses `doc`, failing with the offending input on a panic or on an
/// accepted value that does not round-trip.
fn check(doc: &str) -> Result<Value, json::JsonError> {
    let shown = || doc.chars().take(80).collect::<String>();
    let parsed = catch_unwind(AssertUnwindSafe(|| json::parse(doc)))
        .unwrap_or_else(|_| panic!("parser panicked on {:?}", shown()));
    if let Ok(v) = &parsed {
        assert_eq!(
            json::parse(&json::render(v)).as_ref(),
            Ok(v),
            "{:?} does not round-trip",
            shown()
        );
    }
    parsed
}

/// `[` nesting whose innermost value sits at `depth`.
fn nested_arrays(depth: usize) -> String {
    format!("{}0{}", "[".repeat(depth), "]".repeat(depth))
}

/// Object nesting whose innermost value sits at `depth`.
fn nested_objects(depth: usize) -> String {
    format!("{}null{}", r#"{"k": "#.repeat(depth), "}".repeat(depth))
}

#[test]
fn the_artefact_parses_and_round_trips() {
    let doc = artefact();
    assert!(doc.is_ascii());
    let v = check(&doc).expect("the artefact is valid JSON");
    assert_eq!(
        v.get("label").and_then(Value::as_str),
        Some("Vcc \u{1F50B} \u{b5}s")
    );
    let scalars = v.get("scalars").and_then(Value::as_array).unwrap();
    assert_eq!(scalars[0].as_f64(), Some(6.02e23));
    assert_eq!(scalars[1].as_f64(), Some(-1.5e-7));
    assert_eq!(scalars[4], Value::Null);
}

#[test]
fn mutated_artefacts_never_panic_and_accepted_ones_round_trip() {
    let doc = artefact();
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for m in mutations(&doc) {
        match check(&m) {
            Ok(_) => accepted += 1,
            Err(_) => rejected += 1,
        }
    }
    // Per byte of an ASCII document: one truncation, seven UTF-8-valid
    // bit flips (flipping bit 7 never is) and seven substitutions — so a
    // mutation class that silently stopped running shows up here.
    assert_eq!(
        accepted + rejected,
        15 * doc.len(),
        "{accepted} + {rejected}"
    );
    assert!(
        accepted > 0 && rejected > accepted,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn nesting_is_accepted_at_max_depth_and_rejected_beyond() {
    for nest in [nested_arrays, nested_objects] {
        let at = nest(json::MAX_DEPTH);
        assert!(check(&at).is_ok(), "depth {} must parse", json::MAX_DEPTH);
        let past = check(&nest(json::MAX_DEPTH + 1));
        assert_eq!(past.map_err(|e| e.reason), Err("nesting too deep"));
        // Mutations at the boundary never panic either.
        for m in mutations(&at) {
            let _ = check(&m);
        }
    }
}
