//! Offline stand-in for `serde`.
//!
//! The build container has no crates.io access, so the workspace vendors a
//! minimal serialization framework under serde's names. Unlike real serde's
//! visitor architecture, this shim routes everything through one concrete
//! data model: [`Value`], a JSON-shaped tree. [`Serialize`] renders into a
//! `Value`, [`Deserialize`] reads back out of one, and `serde_json` (the
//! sibling shim) converts `Value` to and from JSON text.
//!
//! Supported derive surface (see `serde_derive`): structs with named
//! fields, externally-tagged enums (unit / newtype / tuple / struct
//! variants), container `#[serde(from = "T", into = "T")]`, and field
//! `#[serde(skip)]`, `#[serde(default)]`, `#[serde(default = "path")]`.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// The serialization data model: a JSON-shaped tree.
///
/// Maps preserve insertion order so serialized output is deterministic and
/// follows declaration order, like serde_json's `preserve_order` mode.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer (also covers unsigned values up to `i64::MAX`;
    /// larger magnitudes fall back to `Float`).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object with insertion-ordered keys.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in a `Map` value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A short description of the value's shape, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Seq(_) => "array",
            Value::Map(_) => "object",
        }
    }
}

/// A (de)serialization error: a plain message, like `serde::de::Error`
/// collapsed to its `custom` case.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl Error {
    /// Builds an error from any displayable message.
    pub fn custom(message: impl fmt::Display) -> Error {
        Error(message.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Renders `self` into the [`Value`] data model.
pub trait Serialize {
    /// The value-tree form of `self`.
    fn to_value(&self) -> Value;

    /// The value-tree form of `self`, borrowed where `self` already is one:
    /// what a writer reads, so rendering a [`Value`] does not first copy it.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

/// Reconstructs `Self` from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Parses a value tree.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

fn type_error(expected: &str, got: &Value) -> Error {
    Error::custom(format!("expected {expected}, found {}", got.kind()))
}

// ------------------------------------------------------------- primitives

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(type_error("bool", other)),
        }
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error::custom(format!("{i} out of range"))),
                    other => Err(type_error("integer", other)),
                }
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize, u8, u16, u32, usize);

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        match i64::try_from(*self) {
            Ok(i) => Value::Int(i),
            Err(_) => Value::Float(*self as f64),
        }
    }
}

impl Deserialize for u64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Int(i) => {
                u64::try_from(*i).map_err(|_| Error::custom(format!("{i} out of range")))
            }
            Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 => Ok(*f as u64),
            other => Err(type_error("integer", other)),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(type_error("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        f64::from_value(value).map(|f| f as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(type_error("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().expect("one char")),
            other => Err(type_error("single-character string", other)),
        }
    }
}

// ------------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(type_error("array", other)),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Seq(items) if items.len() == N => {
                let parsed: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
                parsed
                    .try_into()
                    .map_err(|_| Error::custom("array length mismatch after parse"))
            }
            other => Err(type_error("fixed-length array", other)),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Seq(items) if items.len() == 2 => {
                Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
            }
            other => Err(type_error("2-element array", other)),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Seq(items) if items.len() == 3 => Ok((
                A::from_value(&items[0])?,
                B::from_value(&items[1])?,
                C::from_value(&items[2])?,
            )),
            other => Err(type_error("3-element array", other)),
        }
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort for deterministic output — HashMap iteration order is not.
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        Value::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(type_error("object", other)),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(type_error("object", other)),
        }
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Seq(items)
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

// ------------------------------------------------- derive support helpers

/// Internals used by the generated code of `#[derive(Serialize)]` /
/// `#[derive(Deserialize)]`. Not part of the public API surface.
pub mod __private {
    use super::{Deserialize, Error, Value};

    /// Reads a required struct field.
    pub fn field<T: Deserialize>(value: &Value, name: &str, ty: &str) -> Result<T, Error> {
        match value.get(name) {
            Some(v) => T::from_value(v).map_err(|e| Error::custom(format!("{ty}.{name}: {e}"))),
            None => Err(Error::custom(format!("{ty}: missing field '{name}'"))),
        }
    }

    /// Reads an optional struct field, falling back to `default`.
    pub fn field_or<T: Deserialize>(
        value: &Value,
        name: &str,
        ty: &str,
        default: impl FnOnce() -> T,
    ) -> Result<T, Error> {
        match value.get(name) {
            Some(v) => T::from_value(v).map_err(|e| Error::custom(format!("{ty}.{name}: {e}"))),
            None => Ok(default()),
        }
    }

    /// Splits an externally-tagged enum value into `(variant, payload)`.
    /// Unit variants are encoded as a bare string with no payload.
    pub fn variant<'v>(value: &'v Value, ty: &str) -> Result<(&'v str, Option<&'v Value>), Error> {
        match value {
            Value::Str(name) => Ok((name, None)),
            Value::Map(entries) if entries.len() == 1 => {
                Ok((entries[0].0.as_str(), Some(&entries[0].1)))
            }
            other => Err(Error::custom(format!(
                "{ty}: expected variant string or single-key object, found {}",
                other.kind()
            ))),
        }
    }

    /// Extracts the payload of a multi-field tuple variant.
    pub fn tuple<'v>(
        payload: &'v Value,
        arity: usize,
        ty: &str,
        variant: &str,
    ) -> Result<&'v [Value], Error> {
        match payload {
            Value::Seq(items) if items.len() == arity => Ok(items),
            other => Err(Error::custom(format!(
                "{ty}::{variant}: expected {arity}-element array, found {}",
                other.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::from_value(&42u64.to_value()).expect("u64"), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).expect("i64"), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).expect("f64"), 1.5);
        assert_eq!(String::from_value(&"hi".to_value()).expect("str"), "hi");
        assert!(bool::from_value(&true.to_value()).expect("bool"));
        let v: Vec<usize> = Vec::from_value(&vec![1usize, 2, 3].to_value()).expect("vec");
        assert_eq!(v, vec![1, 2, 3]);
        let o: Option<u32> = Option::from_value(&Value::Null).expect("none");
        assert_eq!(o, None);
    }

    #[test]
    fn hashmap_serializes_sorted() {
        let mut m = HashMap::new();
        m.insert("b".to_string(), 2usize);
        m.insert("a".to_string(), 1usize);
        let Value::Map(entries) = m.to_value() else {
            panic!("expected map")
        };
        assert_eq!(entries[0].0, "a");
        assert_eq!(entries[1].0, "b");
    }

    #[test]
    fn values_are_borrowed_and_everything_else_is_built() {
        let value = Value::Seq(vec![Value::Int(1)]);
        assert!(matches!(value.as_value(), Cow::Borrowed(v) if std::ptr::eq(v, &value)));
        assert!(matches!((&&value).as_value(), Cow::Borrowed(v) if std::ptr::eq(v, &value)));
        assert!(matches!(
            Box::new(value.clone()).as_value(),
            Cow::Borrowed(_)
        ));
        assert_eq!(vec![1usize].as_value().into_owned(), value);
        assert!(matches!(vec![1usize].as_value(), Cow::Owned(_)));
    }

    #[test]
    fn errors_name_the_problem() {
        let err = bool::from_value(&Value::Int(1)).expect_err("type clash");
        assert!(err.to_string().contains("bool"));
    }
}
