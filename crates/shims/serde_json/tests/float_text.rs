//! The JSON writer's float text is byte-identical to Rust's `{:?}`, and
//! the parser reads every such text back to the same bits.
//!
//! Networks, boxes and witnesses cross the daemon's wire as this text, so
//! a single differing byte would change a frame, a canonical report or a
//! cache key. This file is also compiled into the root package's test
//! suite (`tests/wire_float_text.rs`).

/// splitmix64: a seeded stream of bit patterns.
fn bit_patterns(seed: u64) -> impl Iterator<Item = u64> {
    let mut state = seed;
    std::iter::repeat_with(move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

/// Writes `x`, compares the text with `{:?}`, and reads it back.
fn assert_matches_debug(x: f64) {
    let text = serde_json::to_string(&x).unwrap();
    assert_eq!(text, format!("{x:?}"), "bits {:#018x}", x.to_bits());
    let back: f64 = serde_json::from_str(&text).unwrap();
    assert_eq!(back.to_bits(), x.to_bits(), "{text}");
}

#[test]
fn layout_examples() {
    for (x, s) in [
        (0.0001, "0.0001"),
        (2.0, "2.0"),
        (1e15, "1000000000000000.0"),
        (9.999e-5, "9.999e-5"),
        (1e16, "1e16"),
        (1.2345678901234568e17, "1.2345678901234568e17"),
        (5e-324, "5e-324"),
        (-0.0, "-0.0"),
        (0.0, "0.0"),
        (0.1 + 0.2, "0.30000000000000004"),
        (f64::NAN, "NaN"),
        (f64::INFINITY, "Infinity"),
        (f64::NEG_INFINITY, "-Infinity"),
    ] {
        assert_eq!(serde_json::to_string(&x).unwrap(), s);
    }
}

#[test]
fn random_bit_patterns_match_debug() {
    let mut checked = 0;
    let mut exponents = [false; 2047];
    for bits in bit_patterns(0x5_eedf_10a7).take(1_000_000) {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            assert_matches_debug(x);
            exponents[(bits >> 52 & 0x7ff) as usize] = true;
            checked += 1;
        }
    }
    assert!(checked > 999_000);
    assert!(exponents.iter().all(|&seen| seen), "every finite exponent, subnormals included");
}

#[test]
fn special_values_match_debug() {
    let mut xs = vec![
        0.0,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        f64::from_bits(1),
        f64::from_bits((1 << 52) - 1),
    ];
    // The layout boundaries and their neighbours.
    for b in [1e-4f64, 1e16] {
        xs.extend([
            b,
            b.next_up(),
            b.next_down(),
            b.next_up().next_up(),
            b.next_down().next_down(),
        ]);
    }
    // Every power of two, subnormals included.
    xs.extend((0..52).map(|k| f64::from_bits(1 << k)));
    xs.extend((1..0x7ff).map(|e: u64| f64::from_bits(e << 52)));
    // Every power of ten in range, as parsed from its decimal text.
    xs.extend((-323..=308).map(|e| format!("1e{e}").parse::<f64>().unwrap()));
    // Integer-valued floats, short and long.
    xs.extend((0..2000).map(f64::from));
    xs.extend((0..64).map(|s| (u64::MAX >> s) as f64));
    xs.extend((0..53).map(|s| ((1u64 << 53) - 1 - (1 << s)) as f64));
    for x in xs {
        assert_matches_debug(x);
        assert_matches_debug(-x);
    }
}
