//! Number text for the JSON wire: exact `f64` ⇄ decimal conversion.
//!
//! **Writing** gives the shortest round-trip decimal in exactly the
//! layout of Rust's `{:?}`. Digits come from Ryū (Ulf Adams, "Ryū: fast
//! float-to-string conversion", PLDI 2018): the shortest decimal inside
//! the rounding interval of the double, the one closest to its exact
//! value. An exact tie rounds up, as `{:?}` does (Ryū's reference code
//! rounds it to even). The layout is `{:?}`'s: plain decimal with at
//! least one fractional digit when `1e-4 <= |x| < 1e16` (`0.0001`, `2.0`,
//! `1000000000000000.0`), otherwise shortest exponent form (`9.999e-5`,
//! `1e16`, `5e-324`). `{:?}` itself stays as the test oracle.
//!
//! **Reading** scans and converts a number token in one pass. A float of
//! at most 19 significant digits is converted with the Eisel–Lemire
//! algorithm (Daniel Lemire, "Number parsing at a gigabyte per second",
//! Software: Practice and Experience, 2021), the fast path of the
//! standard library's own `str::parse::<f64>`; the rare token it cannot
//! decide, or one with more digits, goes to `str::parse`. Both return
//! the correctly rounded double, so the reader's results are the
//! standard library's.
//!
//! The power-of-five tables both algorithms multiply by are computed
//! once, on first use, from their definitions with a small big-integer
//! routine.

use serde::Number;
use std::cmp::Ordering;
use std::sync::OnceLock;

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;
/// Entries of `5^i` Ryū needs for exponents `e2 < 0`.
const POW5_TABLE_SIZE: usize = 326;
/// Entries of `1 / 5^i` Ryū needs for exponents `e2 >= 0`.
const POW5_INV_TABLE_SIZE: usize = 342;
/// Decimal exponents outside this range read as zero or infinity.
const SMALLEST_POWER_OF_TEN: i32 = -342;
const LARGEST_POWER_OF_TEN: i32 = 308;

/// The power-of-five tables.
struct Tables {
    /// Ryū: the top 125 bits of `5^i` (left-aligned when shorter).
    pow5: Vec<u128>,
    /// Ryū: `floor(2^(bitlen(5^i) - 1 + 125) / 5^i) + 1`.
    pow5_inv: Vec<u128>,
    /// Eisel–Lemire, indexed by `q - SMALLEST_POWER_OF_TEN`: for `q >= 0`
    /// the top 128 bits of `5^q`; for `q < 0`,
    /// `floor(2^(bitlen(5^-q) + 127) / 5^-q)`, plus one for `q >= -27`
    /// (the standard library's `dec2flt` table).
    pow5_128: Vec<u128>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut pow5 = Vec::with_capacity(POW5_TABLE_SIZE);
        let mut pow5_inv = Vec::with_capacity(POW5_INV_TABLE_SIZE);
        let mut negative = Vec::new();
        let mut positive = Vec::new();
        // 5^i as little-endian 64-bit limbs.
        let mut p: Vec<u64> = vec![1];
        for i in 0..=SMALLEST_POWER_OF_TEN.unsigned_abs() as usize {
            let len = bit_len(&p);
            let top = |width: u32| {
                if len >= width {
                    bits_from(&p, len - width)
                } else {
                    bits_from(&p, 0) << (width - len)
                }
            };
            if i < POW5_TABLE_SIZE {
                pow5.push(top(POW5_BITCOUNT as u32));
            }
            if i < POW5_INV_TABLE_SIZE {
                pow5_inv.push(quotient(&p, len, POW5_INV_BITCOUNT as u32) + 1);
            }
            if i > 0 {
                negative.push(quotient(&p, len, 128) + u128::from(i <= 27));
            }
            if i <= LARGEST_POWER_OF_TEN as usize {
                positive.push(top(128));
            }
            let mut carry = 0u128;
            for limb in &mut p {
                let t = u128::from(*limb) * 5 + carry;
                *limb = t as u64;
                carry = t >> 64;
            }
            if carry != 0 {
                p.push(carry as u64);
            }
        }
        negative.reverse();
        negative.extend(positive);
        Tables { pow5, pow5_inv, pow5_128: negative }
    })
}

/// Bit length of a nonzero big integer without leading zero limbs.
fn bit_len(a: &[u64]) -> u32 {
    let top = a.len() - 1;
    64 * top as u32 + (64 - a[top].leading_zeros())
}

/// The 128 bits of `a` starting at bit `shift`.
fn bits_from(a: &[u64], shift: u32) -> u128 {
    let bit = |k: u32| a.get((k / 64) as usize).map_or(0, |limb| (limb >> (k % 64)) & 1);
    (0..128).fold(0u128, |acc, k| acc | (u128::from(bit(shift + k)) << k))
}

/// `floor(2^(len - 1 + k) / d)` for `d` of bit length `len`, by binary
/// long division. The quotient is at most `2^k`, and below `2^128` for
/// `k = 128` and `d > 1`, where `2^(len - 1) < d`.
fn quotient(d: &[u64], len: u32, k: u32) -> u128 {
    // r = 2^(len - 1), then k doublings.
    let mut r = vec![0u64; d.len()];
    r[(len as usize - 1) / 64] = 1 << ((len - 1) % 64);
    let mut q = 0u128;
    for step in 0..=k {
        if step > 0 {
            let mut carry = 0;
            for limb in &mut r {
                let next = *limb >> 63;
                *limb = (*limb << 1) | carry;
                carry = next;
            }
            if carry != 0 {
                r.push(carry);
            }
        }
        q <<= 1;
        if compare(&r, d) != Ordering::Less {
            let mut borrow = false;
            for (k, limb) in r.iter_mut().enumerate() {
                let (v, b1) = limb.overflowing_sub(d.get(k).copied().unwrap_or(0));
                let (v, b2) = v.overflowing_sub(u64::from(borrow));
                *limb = v;
                borrow = b1 || b2;
            }
            q |= 1;
        }
    }
    q
}

fn compare(a: &[u64], b: &[u64]) -> Ordering {
    let n = a.len().max(b.len());
    (0..n)
        .rev()
        .map(|k| a.get(k).copied().unwrap_or(0).cmp(&b.get(k).copied().unwrap_or(0)))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// `ceil(log2(5^e))` for `0 <= e <= 3528`.
fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// How many times 5 divides `v > 0`.
fn pow5_factor(mut v: u64) -> u32 {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count
}

/// `(m * mul) >> j` for a 55-bit `m`, a 125-bit `mul` and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let lo = u128::from(m) * (mul as u64 as u128);
    let hi = u128::from(m) * (mul >> 64);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

/// Ryū's core: the shortest `(digits, e10)` with `digits * 10^e10` inside
/// the rounding interval of the positive finite double with the given
/// IEEE fields.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // Two extra bits for the interval bounds.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-to-even reading of the input: an even mantissa owns its
    // interval's bounds.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower bound is closer at a power of two (except the smallest).
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    let t = tables();
    let (mut vr, mut vp, mut vm, e10);
    // Whether the lower bound's removed digits are all zeros so far.
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let mul = t.pow5_inv[q as usize];
        vr = mul_shift(4 * m2, mul, i);
        vp = mul_shift(4 * m2 + 2, mul, i);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, i);
        // At most one of mp, mv and mm is a multiple of 5; only the
        // bounds' exactness matters here.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = pow5_factor(mv - 1 - mm_shift) >= q;
            } else {
                vp -= u64::from(pow5_factor(mv + 2) >= q);
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = t.pow5[i as usize];
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        if q <= 1 {
            // mm = mv - 1 - mm_shift has a trailing zero bit iff
            // mm_shift == 1; mp = mv + 2 always has one.
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let output = if vm_trailing_zeros {
        // The lower bound is exact and may itself be the shortest (rare).
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let below = vr == vm && (!accept_bounds || !vm_trailing_zeros);
        vr + u64::from(below || last_removed >= 5)
    } else {
        let mut round_up = false;
        // Two digits at a time first: most doubles shed at least two.
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `"00"`, `"01"`, …, `"99"`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Writes the decimal digits of `v` right-aligned into `dst`, which must
/// be exactly as long as `v` has digits.
fn write_digits(mut v: u64, dst: &mut [u8]) {
    let mut end = dst.len();
    // Eight digits per step, as two independent four-digit halves in
    // 32-bit arithmetic: a shorter dependency chain than pair by pair.
    while v >= 100_000_000 {
        let chunk = (v % 100_000_000) as u32;
        v /= 100_000_000;
        write_four(chunk / 10_000, &mut dst[end - 8..end - 4]);
        write_four(chunk % 10_000, &mut dst[end - 4..end]);
        end -= 8;
    }
    let mut v = v as u32;
    while v >= 100 {
        let pair = 2 * (v % 100) as usize;
        v /= 100;
        dst[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        end -= 2;
    }
    if v >= 10 {
        let pair = 2 * v as usize;
        dst[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        dst[end - 1] = b'0' + v as u8;
    }
}

/// Writes `v < 10000` as exactly four digits.
fn write_four(v: u32, dst: &mut [u8]) {
    let (hi, lo) = (2 * (v / 100) as usize, 2 * (v % 100) as usize);
    dst[..2].copy_from_slice(&DIGIT_PAIRS[hi..hi + 2]);
    dst[2..4].copy_from_slice(&DIGIT_PAIRS[lo..lo + 2]);
}

/// Appends a finite `x` to `out` exactly as `format!("{x:?}")` renders it.
pub(crate) fn write_finite(x: f64, out: &mut String) {
    debug_assert!(x.is_finite());
    let bits = x.to_bits();
    if bits >> 63 != 0 {
        out.push('-');
    }
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    if ieee_mantissa == 0 && ieee_exponent == 0 {
        out.push_str("0.0");
        return;
    }
    let (output, e10) = shortest(ieee_mantissa, ieee_exponent);
    // At most 17 digits.
    let n = output.ilog10() as usize + 1;
    // The value is 0.d1d2…dn × 10^point.
    let point = n as i32 + e10;
    // Each layout writes the digits once, straight into their place; the
    // longest text, `1.2345678901234567e-308`, takes 23 bytes.
    let mut buf = [b'0'; 32];
    let len;
    if (1e-4..1e16).contains(&x.abs()) {
        if point <= 0 {
            // 0.000ddd (the zeros are already in `buf`).
            let lead = 2 + point.unsigned_abs() as usize;
            buf[1] = b'.';
            write_digits(output, &mut buf[lead..lead + n]);
            len = lead + n;
        } else if (point as usize) < n {
            // ddd.ddd: write, then shift the integer part left over the gap.
            let p = point as usize;
            write_digits(output, &mut buf[1..=n]);
            buf.copy_within(1..=p, 0);
            buf[p] = b'.';
            len = n + 1;
        } else {
            // ddd000.0
            let p = point as usize;
            write_digits(output, &mut buf[..n]);
            buf[p] = b'.';
            len = p + 2;
        }
    } else {
        // d.ddde-x
        write_digits(output, &mut buf[1..=n]);
        buf[0] = buf[1];
        let mut at = if n > 1 {
            buf[1] = b'.';
            n + 1
        } else {
            1
        };
        buf[at] = b'e';
        at += 1;
        let exp = point - 1;
        if exp < 0 {
            buf[at] = b'-';
            at += 1;
        }
        let exp = u64::from(exp.unsigned_abs());
        let exp_len = exp.checked_ilog10().map_or(1, |l| l as usize + 1);
        write_digits(exp, &mut buf[at..at + exp_len]);
        len = at + exp_len;
    }
    out.push_str(std::str::from_utf8(&buf[..len]).expect("float text is ASCII"));
}

/// Reads a number token of the common shapes at the start of `bytes`, in
/// one pass: an integer `-?digits`, or a float `-?digits.digits` or
/// `-?digits[.digits]e[+-]digits` (`e` or `E`), with at most 19
/// significant digits. Integers stay integers — u64 weight-bit patterns
/// above 2^53 must not round-trip through f64 — as `U` when non-negative
/// and `I` when negative; a float is the double nearest the token.
/// Returns the number and the token's length, or `None` for any other
/// shape, more digits, a negative integer below `i64::MIN`, or a float
/// Eisel–Lemire leaves undecided.
pub(crate) fn read_number(bytes: &[u8]) -> Option<(Number, usize)> {
    let negative = bytes.first() == Some(&b'-');
    let start = usize::from(negative);
    let mut pos = start;
    let mut w = 0u64;
    let mut n_digits = read_digits(bytes, &mut pos, &mut w);
    if n_digits == 0 {
        return None;
    }
    let mut q = 0i32;
    let mut is_float = false;
    if bytes.get(pos) == Some(&b'.') {
        pos += 1;
        let fraction = read_digits(bytes, &mut pos, &mut w);
        if fraction == 0 {
            return None;
        }
        n_digits += fraction;
        q = -(fraction as i32);
        is_float = true;
    }
    if n_digits > 19 {
        // Leading zeros, before or after the point, are not significant.
        let zeros = bytes[start..pos]
            .iter()
            .take_while(|&&b| b == b'0' || b == b'.')
            .filter(|&&b| b == b'0')
            .count();
        if n_digits - zeros > 19 {
            return None;
        }
    }
    if let Some(b'e' | b'E') = bytes.get(pos) {
        pos += 1;
        let exp_negative = bytes.get(pos) == Some(&b'-');
        if let Some(b'-' | b'+') = bytes.get(pos) {
            pos += 1;
        }
        let exp_start = pos;
        let mut exp = 0i32;
        while let Some(&b @ b'0'..=b'9') = bytes.get(pos) {
            // Saturate: beyond 10^5 every exponent reads as 0 or infinity.
            exp = (exp * 10 + i32::from(b - b'0')).min(100_000);
            pos += 1;
        }
        if pos == exp_start {
            return None;
        }
        q += if exp_negative { -exp } else { exp };
        is_float = true;
    }
    if !is_float {
        let int = match negative {
            false => Number::U(w),
            true if w <= 1 << 63 => Number::I(0i64.wrapping_sub_unsigned(w)),
            true => return None,
        };
        return Some((int, pos));
    }
    let bits = eisel_lemire(q, w)?;
    Some((Number::F(f64::from_bits(bits | (u64::from(negative) << 63))), pos))
}

/// Appends the decimal digits at `bytes[*pos..]` to `w` and returns how
/// many there were. `w` wraps past 19 significant digits, which
/// [`read_number`] rejects.
fn read_digits(bytes: &[u8], pos: &mut usize, w: &mut u64) -> usize {
    let start = *pos;
    // Eight at a time while eight digits follow (SWAR, as in the
    // standard library's `dec2flt`).
    while let Some(chunk) = bytes.get(*pos..*pos + 8) {
        let v = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let not_digits = (v.wrapping_add(0x4646_4646_4646_4646)
            | v.wrapping_sub(0x3030_3030_3030_3030))
            & 0x8080_8080_8080_8080;
        if not_digits != 0 {
            break;
        }
        *w = w.wrapping_mul(100_000_000).wrapping_add(eight_digits(v));
        *pos += 8;
    }
    while let Some(&b @ b'0'..=b'9') = bytes.get(*pos) {
        *w = w.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
        *pos += 1;
    }
    *pos - start
}

/// The value of eight ASCII digits read little-endian into `v`.
fn eight_digits(v: u64) -> u64 {
    const MASK: u64 = 0x0000_00ff_0000_00ff;
    const MUL1: u64 = 0x000f_4240_0000_0064;
    const MUL2: u64 = 0x0000_2710_0000_0001;
    let v = v - 0x3030_3030_3030_3030;
    let v = (v * 10) + (v >> 8);
    let v1 = (v & MASK).wrapping_mul(MUL1);
    let v2 = ((v >> 16) & MASK).wrapping_mul(MUL2);
    u64::from((v1.wrapping_add(v2) >> 32) as u32)
}

/// The bits of the double nearest `w × 10^q` (sign clear), or `None`
/// where the 128-bit product cannot decide the rounding. This is the
/// standard library's `dec2flt::lemire::compute_float` for `f64`.
fn eisel_lemire(q: i32, w: u64) -> Option<u64> {
    const INFINITY: u64 = 0x7ff << MANTISSA_BITS;
    if w == 0 || q < SMALLEST_POWER_OF_TEN {
        return Some(0);
    }
    if q > LARGEST_POWER_OF_TEN {
        return Some(INFINITY);
    }
    let lz = w.leading_zeros();
    let w = w << lz;
    // Product of the normalized significand and the 128-bit 5^q, exact
    // enough in its top 55 bits, unless those bits end in all ones.
    let mul = tables().pow5_128[(q - SMALLEST_POWER_OF_TEN) as usize];
    let first = u128::from(w) * (mul >> 64);
    let (mut lo, mut hi) = (first as u64, (first >> 64) as u64);
    let mask = u64::MAX >> (MANTISSA_BITS + 3);
    if hi & mask == mask {
        let second_hi = ((u128::from(w) * (mul as u64 as u128)) >> 64) as u64;
        lo = lo.wrapping_add(second_hi);
        if second_hi > lo {
            hi += 1;
        }
    }
    if lo == u64::MAX && !(-27..=55).contains(&q) {
        return None;
    }
    let upper_bit = (hi >> 63) as i32;
    let shift = upper_bit + 64 - MANTISSA_BITS as i32 - 3;
    let mut mantissa = hi >> shift;
    // floor(log2(10^q)) + 63, as a fixed-point product.
    let power = ((q * (152_170 + 65_536)) >> 16) + 63;
    let mut power2 = power + upper_bit - lz as i32 + EXPONENT_BIAS;
    if power2 <= 0 {
        // Subnormal (or zero).
        if -power2 + 1 >= 64 {
            return Some(0);
        }
        mantissa >>= -power2 + 1;
        mantissa += mantissa & 1;
        mantissa >>= 1;
        power2 = i32::from(mantissa >= 1 << MANTISSA_BITS);
        return Some(mantissa | ((power2 as u64) << MANTISSA_BITS));
    }
    // Exactly halfway between two doubles: round to even, not up.
    if lo <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && (mantissa << shift) == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << MANTISSA_BITS {
        mantissa = 1 << MANTISSA_BITS;
        power2 += 1;
    }
    mantissa &= !(1 << MANTISSA_BITS);
    if power2 >= 0x7ff {
        return Some(INFINITY);
    }
    Some(mantissa | ((power2 as u64) << MANTISSA_BITS))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(x: f64) -> String {
        let mut s = String::new();
        write_finite(x, &mut s);
        s
    }

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

    /// Whether `read_number` decides the float `text`; where it does, the
    /// bits must equal `str::parse::<f64>`'s.
    fn assert_reads_like_std(text: &str) -> bool {
        let std = text.parse::<f64>().map(f64::to_bits);
        match read_number(text.as_bytes()) {
            Some((Number::F(x), len)) => {
                assert_eq!(len, text.len(), "{text}");
                assert_eq!(Ok(x.to_bits()), std, "{text}");
                true
            }
            other => {
                assert_eq!(other, None, "{text}");
                false
            }
        }
    }

    #[test]
    fn reader_round_trips_every_written_float() {
        let mut decided = 0;
        for bits in bit_patterns(0x2_eadf_10a7).take(1_000_000) {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                let s = text(x);
                if assert_reads_like_std(&s) {
                    decided += 1;
                }
                assert_eq!(crate::from_str::<f64>(&s).map(f64::to_bits), Ok(bits), "{s}");
            }
        }
        assert!(decided > 990_000, "fast path decided only {decided}");
    }

    #[test]
    fn reader_matches_std_on_random_decimals() {
        let mut rng = bit_patterns(0x0dec_13a1);
        let mut decided = 0;
        for _ in 0..300_000 {
            let r = rng.next().unwrap();
            let ndigits = 1 + (r % 21) as usize;
            let digits: String = (0..ndigits)
                .map(|k| char::from(b'0' + ((rng.next().unwrap() >> (k % 8)) % 10) as u8))
                .collect();
            let point = ((r >> 8) % (ndigits as u64 + 1)) as usize;
            let exp = ((r >> 16) % 741) as i32 - 370;
            let sign = if r >> 63 == 1 { "-" } else { "" };
            let int = if point == 0 { "0" } else { &digits[..point] };
            let frac = &digits[point..];
            let texts = [
                format!("{sign}{int}.{}", if frac.is_empty() { "0" } else { frac }),
                format!("{sign}{int}{}{frac}e{exp}", if frac.is_empty() { "" } else { "." }),
                format!("{sign}{digits}E+{}", exp.unsigned_abs()),
            ];
            for t in &texts {
                decided += usize::from(assert_reads_like_std(t));
            }
            // The integer form decodes as the standard library's integer
            // parsers read it.
            let int = format!("{sign}{digits}");
            let std = match sign {
                "" => int.parse::<u64>().ok().map(Number::U),
                _ => int.parse::<i64>().ok().map(Number::I),
            };
            if let Some((n, len)) = read_number(int.as_bytes()) {
                assert_eq!((Some(n), len), (std, int.len()), "{int}");
            }
        }
        assert!(decided > 600_000, "fast path decided only {decided}");
        // Shapes the fast path leaves to the standard library.
        for t in ["1.", "-.5", "1e", "1e+", "1.e5", "--1", "12345678901234567890.5"] {
            assert_eq!(read_number(t.as_bytes()), None, "{t}");
        }
        // Integers of up to 19 digits stay integers; longer ones and
        // negatives below i64::MIN are left to the standard library.
        for (t, n) in [
            ("0", Some(Number::U(0))),
            ("007", Some(Number::U(7))),
            ("-0", Some(Number::I(0))),
            ("9999999999999999999", Some(Number::U(9_999_999_999_999_999_999))),
            ("-9223372036854775808", Some(Number::I(i64::MIN))),
            ("-9223372036854775809", None),
            ("18446744073709551615", None),
        ] {
            assert_eq!(read_number(t.as_bytes()).map(|(n, _)| n), n, "{t}");
        }
    }

    #[test]
    fn reader_rounds_exact_halfway_decimals_to_even() {
        // Odd integers above 2^53 lie halfway between two doubles.
        for k in [53u32, 54, 60, 63] {
            for m in 0..500u64 {
                let n = (1u64 << k) + 2 * m + 1;
                assert_reads_like_std(&format!("{n}.0"));
                assert_reads_like_std(&format!("{n}e0"));
            }
        }
        // (2m + 1) / 2^j: exact decimals of up to 19 digits, halfway
        // between doubles once m has 53 bits.
        for j in 1..=27u32 {
            for m in [(1u64 << 52) + 1, (1u64 << 53) - 1, 3, 12345] {
                let n = u128::from(2 * m + 1) * 5u128.pow(j);
                let s = n.to_string();
                if s.len() <= 19 {
                    let (int, frac) = if s.len() > j as usize {
                        (s[..s.len() - j as usize].to_owned(), s[s.len() - j as usize..].to_owned())
                    } else {
                        ("0".to_owned(), format!("{}{s}", "0".repeat(j as usize - s.len())))
                    };
                    let t = format!("{int}.{frac}");
                    assert!(assert_reads_like_std(&t), "{t}");
                }
            }
        }
    }
}
