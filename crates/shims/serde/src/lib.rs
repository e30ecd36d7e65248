//! In-repo shim for the subset of `serde` this workspace uses.
//!
//! The build environment has no network access to crates.io, so the real
//! serde cannot be fetched. Rather than abandoning serialization, this shim
//! keeps the workspace's `use serde::{Serialize, Deserialize}` and
//! `#[derive(Serialize, Deserialize)]` source unchanged by providing the
//! same names over a much smaller data model: every serializable value
//! converts to and from an owned JSON-like [`Value`] tree, and the sibling
//! `serde_json` shim renders/parses that tree as JSON text.
//!
//! This trades serde's zero-copy visitor architecture for simplicity, and
//! the trade is measured: on the daemon's largest frame, a 184 KB `Open`
//! line carrying 8,960 weights, building the tree takes about 0.03 ms and
//! reading it back about 0.03 ms, against about 0.6 ms to write its text
//! and 0.45 ms to parse it (2-vCPU host) — the tree is a few percent of
//! the codec, and number text is the rest. If real serde ever becomes
//! available, deleting the `crates/shims` path entries restores it without
//! source changes elsewhere.

use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// An owned JSON-like value tree — the shim's entire data model.
///
/// Object fields keep insertion order (a `Vec` of pairs rather than a map)
/// so serialized artifacts are deterministic and diff-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(Number),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// A JSON number, kept in its original width class.
///
/// `u64` must survive exactly — the workspace stores IEEE-754 bit patterns
/// of network weights as integers (`covern-nn`'s bit-exact format), and
/// those exceed the 2^53 range where `f64` is lossless.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Unsigned integer (any non-negative integer literal).
    U(u64),
    /// Negative integer.
    I(i64),
    /// Floating point.
    F(f64),
}

impl Value {
    /// Looks up a field of an object value.
    pub fn field(&self, name: &str) -> Result<&Value, DeError> {
        match self {
            Value::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| DeError::custom(format!("missing field `{name}`"))),
            _ => Err(DeError::custom(format!("expected object with field `{name}`"))),
        }
    }

    /// Looks up an element of an array value.
    pub fn index(&self, i: usize) -> Result<&Value, DeError> {
        match self {
            Value::Array(items) => {
                items.get(i).ok_or_else(|| DeError::custom(format!("missing array element {i}")))
            }
            _ => Err(DeError::custom(format!("expected array with element {i}"))),
        }
    }

    fn as_f64(&self) -> Result<f64, DeError> {
        match self {
            Value::Num(Number::F(x)) => Ok(*x),
            Value::Num(Number::U(u)) => Ok(*u as f64),
            Value::Num(Number::I(i)) => Ok(*i as f64),
            _ => Err(DeError::custom("expected a number")),
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(String);

impl DeError {
    /// Creates an error from a message.
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Conversion into the shim's [`Value`] tree.
pub trait Serialize {
    /// Converts `self` to a value tree.
    fn to_value(&self) -> Value;
}

/// Conversion from the shim's [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a value tree.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::custom("expected a boolean")),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Num(Number::F(*self))
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        value.as_f64()
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Num(Number::F(f64::from(*self)))
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.as_f64()? as f32)
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(Number::U(*self as u64))
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Num(Number::U(u)) => <$t>::try_from(*u)
                        .map_err(|_| DeError::custom("integer out of range")),
                    // An integral float converts only when it is in range:
                    // `as` would saturate `1e300` to `MAX`. `2^BITS` is
                    // exact in f64 where `MAX as f64` may round up to it.
                    Value::Num(Number::F(x)) if x.fract() == 0.0 => {
                        if *x >= 0.0 && *x < 2f64.powi(<$t>::BITS as i32) {
                            Ok(*x as $t)
                        } else {
                            Err(DeError::custom("integer out of range"))
                        }
                    }
                    _ => Err(DeError::custom("expected an unsigned integer")),
                }
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_sint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let x = *self as i64;
                if x >= 0 {
                    Value::Num(Number::U(x as u64))
                } else {
                    Value::Num(Number::I(x))
                }
            }
        }

        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Num(Number::U(u)) => <$t>::try_from(*u)
                        .map_err(|_| DeError::custom("integer out of range")),
                    Value::Num(Number::I(i)) => <$t>::try_from(*i)
                        .map_err(|_| DeError::custom("integer out of range")),
                    // In range iff -2^(BITS-1) <= x < 2^(BITS-1); both
                    // bounds are exact in f64.
                    Value::Num(Number::F(x)) if x.fract() == 0.0 => {
                        let min = <$t>::MIN as f64;
                        if *x >= min && *x < -min {
                            Ok(*x as $t)
                        } else {
                            Err(DeError::custom("integer out of range"))
                        }
                    }
                    _ => Err(DeError::custom("expected an integer")),
                }
            }
        }
    )*};
}

impl_serde_sint!(i8, i16, i32, i64, isize);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::custom("expected a string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::custom("expected an array")),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let items = Vec::<T>::from_value(value)?;
        let n = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| DeError::custom(format!("expected {N} elements, found {n}")))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }

        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                Ok(($($t::from_value(value.index($i)?)?,)+))
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl Serialize for std::time::Duration {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("secs".to_string(), Value::Num(Number::U(self.as_secs()))),
            ("nanos".to_string(), Value::Num(Number::U(u64::from(self.subsec_nanos())))),
        ])
    }
}

impl Deserialize for std::time::Duration {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let secs = u64::from_value(value.field("secs")?)?;
        let nanos = u32::from_value(value.field("nanos")?)?;
        Ok(std::time::Duration::new(secs, nanos))
    }
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter().map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()])).collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Array(items) => items
                .iter()
                .map(|pair| Ok((K::from_value(pair.index(0)?)?, V::from_value(pair.index(1)?)?)))
                .collect(),
            _ => Err(DeError::custom("expected an array of pairs")),
        }
    }
}
