//! Pins the `core::manifest::Json` round-trip contract:
//! `parse(render(j)) == j` for every value whose numbers are finite,
//! through both the pretty and the compact renderer, including string
//! escape edge cases (control characters, `\u` escapes, surrogate
//! pairs) and the documented non-finite-number lossy corner — and the
//! contracts of what reads a parsed document: the strict accessors
//! (an integer is integral, non-negative, in range and at most 2^53, or
//! it is not an integer) and the `StreamSummary` writer (no detections
//! round-trip as `null`, never 0).

use bgpsim_core::manifest::{stream_summary_json, Json};
use bgpsim_core::stream::StreamSummary;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// One arbitrary JSON tree, built from a seeded deterministic generator
/// (the vendored proptest has no recursive strategies, so the strategy
/// layer draws a seed and this function grows the tree).
fn arb_json(rng: &mut TestRng, depth: u32) -> Json {
    // Leaves only near the depth cap, containers weighted in above it.
    let arms = if depth >= 4 { 6 } else { 8 };
    match rng.below(arms) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 | 3 => Json::Num(arb_number(rng)),
        4 | 5 => Json::Str(arb_string(rng)),
        6 => Json::Arr(
            (0..rng.below(5))
                .map(|_| arb_json(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(5))
                .map(|_| (arb_string(rng), arb_json(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// Finite numbers across the renderer's regimes: small integrals (the
/// `i64` path), large magnitudes beyond the 2^53 integral cutoff,
/// fractions relying on shortest-roundtrip formatting, and raw
/// bit-pattern doubles (filtered to finite).
fn arb_number(rng: &mut TestRng) -> f64 {
    match rng.below(4) {
        0 => rng.next_u64() as i32 as f64,
        1 => (rng.next_u64() >> 1) as f64 * 1e5,
        2 => f64::from_bits(rng.next_u64() % (1 << 52)) * 1e-3 - 0.5,
        _ => {
            let raw = f64::from_bits(rng.next_u64());
            if raw.is_finite() {
                raw
            } else {
                -0.0
            }
        }
    }
}

/// Strings biased toward the escape-relevant classes: quotes and
/// backslashes, control characters (rendered as `\n`/`\t`/`\uXXXX`),
/// plain ASCII, BMP non-ASCII, and astral code points.
fn arb_string(rng: &mut TestRng) -> String {
    (0..rng.below(12))
        .map(|_| match rng.below(6) {
            0 => ['"', '\\', '/'][rng.below(3) as usize],
            1 => char::from_u32(rng.below(0x20) as u32).unwrap(),
            2 => char::from_u32(0x20 + rng.below(0x5f) as u32).unwrap(),
            3 => char::from_u32(0xa0 + rng.below(0x500) as u32).unwrap(),
            4 => char::from_u32(0x1f300 + rng.below(0x100) as u32).unwrap(),
            _ => 'x',
        })
        .collect()
}

/// Escapes every scalar as `\uXXXX` (astral code points as surrogate
/// pairs) — the maximal-escaping encoder `Json::render` never produces,
/// exercising the parser's full `\u` path.
fn escape_everything(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        let mut units = [0u16; 2];
        for unit in c.encode_utf16(&mut units) {
            out.push_str(&format!("\\u{unit:04x}"));
        }
    }
    out.push('"');
    out
}

proptest! {
    #[test]
    fn parse_inverts_render(seed in 0u64..u64::MAX) {
        let value = arb_json(&mut TestRng::from_seed(seed), 0);
        let pretty = Json::parse(&value.render())
            .map_err(|e| TestCaseError::fail(format!("pretty: {e}")))?;
        prop_assert_eq!(&pretty, &value);
        let compact = Json::parse(&value.render_compact())
            .map_err(|e| TestCaseError::fail(format!("compact: {e}")))?;
        prop_assert_eq!(&compact, &value);
    }

    #[test]
    fn parse_reads_fully_escaped_strings(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let s = arb_string(&mut rng);
        let parsed = Json::parse(&escape_everything(&s))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(parsed, Json::str(s));
    }

    #[test]
    fn integers_read_back_exactly_or_not_at_all(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::from_seed(seed);
        let n = arb_number(&mut rng);
        let exact = n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n);
        match Json::Num(n).as_u64() {
            Some(read) => {
                prop_assert!(exact, "{n} read as {read}");
                prop_assert_eq!(read as f64, n);
            }
            None => prop_assert!(!exact, "{n} refused"),
        }
        let small = rng.next_u64() as u32;
        prop_assert_eq!(Json::from(small).as_u32(), Some(small));
        prop_assert_eq!(Json::from(small).as_u64(), Some(u64::from(small)));
    }
}

#[test]
fn a_summary_without_detections_round_trips_as_null_not_zero() {
    let quiet = StreamSummary {
        events: 50,
        injected: 2,
        detected: 0,
        mean_latency: None,
        max_latency: None,
    };
    let wire = stream_summary_json(&quiet).render_compact();
    assert_eq!(
        wire,
        "{\"events\":50,\"injected\":2,\"detected\":0,\
         \"mean_latency_events\":null,\"max_latency_events\":null}"
    );
    let read = Json::parse(&wire).unwrap();
    assert_eq!(read.get("mean_latency_events"), Some(&Json::Null));
    assert_eq!(read.get("max_latency_events"), Some(&Json::Null));
    // "Detected instantly" is a different summary and stays one.
    let instant = StreamSummary {
        detected: 2,
        mean_latency: Some(0.0),
        max_latency: Some(0),
        ..quiet
    };
    let wire = stream_summary_json(&instant).render_compact();
    assert!(wire.ends_with("\"mean_latency_events\":0,\"max_latency_events\":0}"));
    let read = Json::parse(&wire).unwrap();
    assert_eq!(read.get("mean_latency_events"), Some(&Json::Num(0.0)));
    assert_eq!(
        read.get("max_latency_events").and_then(Json::as_u64),
        Some(0)
    );
}

/// The reader strictness table: what each accessor makes of each value.
#[test]
fn readers_refuse_what_is_not_exactly_what_they_read() {
    let doc = Json::parse(
        "{\"neg\":-1,\"frac\":2.5,\"big\":9007199254740994,\"text\":\"7\",\
          \"wide\":4294967296,\"max32\":4294967295,\"max\":9007199254740992,\
          \"zero\":0,\"yes\":true,\"list\":[1,2,3],\"mixed\":[1,-2],\"nil\":null,\
          \"twice\":1,\"twice\":2}",
    )
    .unwrap();
    let at = |key: &str| doc.get(key).unwrap_or_else(|| panic!("no {key}"));
    // (key, as_u64, as_u32)
    for (key, wide, narrow) in [
        ("neg", None, None),
        ("frac", None, None),
        ("big", None, None), // 2^53 + 2: exactly a double, past the safe range
        ("text", None, None),
        ("nil", None, None),
        ("yes", None, None),
        ("list", None, None),
        ("wide", Some(1 << 32), None), // u32::MAX + 1
        ("max32", Some(u64::from(u32::MAX)), Some(u32::MAX)),
        ("max", Some(1 << 53), None),
        ("zero", Some(0), Some(0)),
    ] {
        assert_eq!(at(key).as_u64(), wide, "{key}");
        assert_eq!(at(key).as_u32(), narrow, "{key}");
    }
    assert_eq!(at("text").as_str(), Some("7"));
    assert_eq!(at("zero").as_str(), None);
    assert_eq!(at("yes").as_bool(), Some(true));
    assert_eq!(at("zero").as_bool(), None);
    assert_eq!(at("list").as_array().map(<[Json]>::len), Some(3));
    assert_eq!(at("list").as_u32_array(), Some(vec![1, 2, 3]));
    assert_eq!(Json::u32s(&[1, 2, 3]), *at("list"));
    // One bad item rejects the whole list.
    assert_eq!(at("mixed").as_u32_array(), None);
    assert_eq!(at("zero").as_u32_array(), None);
    // Lookups: a missing key, a non-object, and a repeated key (the first wins).
    assert_eq!(doc.get("absent"), None);
    assert_eq!(at("list").get("neg"), None);
    assert_eq!(at("twice").as_u64(), Some(1));
}
