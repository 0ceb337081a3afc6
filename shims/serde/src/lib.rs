//! Offline stand-in for `serde` (see `shims/README.md` for why).
//!
//! The real crates are unavailable in this build environment, so this
//! shim provides the exact surface the workspace uses: `Serialize` /
//! `Deserialize` traits (plus same-named derive macros under the
//! `derive` feature) over an ordered JSON [`Value`] tree. Object keys
//! keep insertion order, so serialisation is deterministic — a property
//! the suite determinism CI gate depends on.
//!
//! Serialisation streams: every impl drives the one [`Writer`], so the
//! `Value` tree is only built by [`Serialize::to_value`] and by parsing.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

mod writer;

#[doc(hidden)]
pub use writer::{Compound, Writer};

use std::io;

/// An ordered JSON value. Objects preserve insertion order (no hashing),
/// keeping output byte-deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer (u64 exact).
    UInt(u64),
    /// Negative integer.
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Deserialisation error: a plain message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// "expected X" error.
    pub fn expected(what: &str) -> DeError {
        DeError(format!("expected {what}"))
    }

    /// Unknown enum variant error.
    pub fn unknown_variant(got: &str, enum_name: &str) -> DeError {
        DeError(format!("unknown variant `{got}` for {enum_name}"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types serialisable into a [`Value`] or straight into JSON text.
pub trait Serialize {
    /// Converts `self` into a JSON value.
    fn to_value(&self) -> Value;

    /// Streams `self` as JSON through `w`, printing exactly what
    /// printing [`to_value`](Self::to_value) would. Shim-internal: the
    /// derive implements it and `serde_json` calls it; nothing outside
    /// `shims/` should do either.
    #[doc(hidden)]
    fn write_json<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()>;
}

/// Types reconstructable from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a JSON value.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// -- derive support helpers (stable API for generated code) ------------

/// Expects `v` to be an object; used by derived code.
pub fn expect_object<'a>(v: &'a Value, type_name: &str) -> Result<&'a [(String, Value)], DeError> {
    v.as_object()
        .ok_or_else(|| DeError(format!("expected object for {type_name}")))
}

/// Looks up a field in derived struct deserialisation.
pub fn expect_field<'a>(
    fields: &'a [(String, Value)],
    name: &str,
    type_name: &str,
) -> Result<&'a Value, DeError> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError(format!("missing field `{name}` for {type_name}")))
}

/// Expects an array of exactly `len` items; used by derived code.
pub fn expect_array<'a>(v: &'a Value, len: usize, type_name: &str) -> Result<&'a [Value], DeError> {
    match v.as_array() {
        Some(items) if items.len() == len => Ok(items),
        _ => Err(DeError(format!(
            "expected {len}-element array for {type_name}"
        ))),
    }
}

// -- primitive impls ---------------------------------------------------

macro_rules! ser_de_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
            #[inline]
            fn write_json<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
                w.u64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::expected(stringify!($t))),
                    Value::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::expected(stringify!($t))),
                    _ => Err(DeError::expected(stringify!($t))),
                }
            }
        }
    )*};
}

macro_rules! ser_de_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 {
                    Value::UInt(n as u64)
                } else {
                    Value::Int(n)
                }
            }
            #[inline]
            fn write_json<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
                w.i64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::expected(stringify!($t))),
                    Value::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::expected(stringify!($t))),
                    _ => Err(DeError::expected(stringify!($t))),
                }
            }
        }
    )*};
}

ser_de_uint!(u8, u16, u32, u64, usize);
ser_de_int!(i8, i16, i32, i64, isize);

macro_rules! ser_de_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
            fn write_json<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
                w.f64(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Float(x) => Ok(*x as $t),
                    Value::UInt(n) => Ok(*n as $t),
                    Value::Int(n) => Ok(*n as $t),
                    Value::Null => Ok(<$t>::NAN),
                    _ => Err(DeError::expected(stringify!($t))),
                }
            }
        }
    )*};
}

ser_de_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    #[inline]
    fn write_json<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::expected("bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
    fn write_json<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.str(self)
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::expected("string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
    fn write_json<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.str(self)
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
    fn write_json<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.str(self.encode_utf8(&mut [0; 4]))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    #[inline]
    fn write_json<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        (**self).write_json(w)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    #[inline]
    fn write_json<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        self.as_slice().write_json(w)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        let mut c = w.begin_array()?;
        for item in self {
            w.element(&mut c)?;
            item.write_json(w)?;
        }
        w.end_array(c)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::expected("array")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
    #[inline]
    fn write_json<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        match self {
            Some(x) => x.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn write_json<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        (**self).write_json(w)
    }
}

macro_rules! ser_de_tuple {
    ($(($($t:ident . $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
            fn write_json<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
                let mut c = w.begin_array()?;
                $(
                    w.element(&mut c)?;
                    self.$i.write_json(w)?;
                )+
                w.end_array(c)
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                const N: usize = 0 $(+ { let _ = $i; 1 })+;
                match v.as_array() {
                    Some(items) if items.len() == N => {
                        Ok(($($t::from_value(&items[$i])?,)+))
                    }
                    _ => Err(DeError::expected("tuple array")),
                }
            }
        }
    )*};
}

ser_de_tuple! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
    fn write_json<W: io::Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::UInt(n) => w.u64(*n),
            Value::Int(n) => w.i64(*n),
            Value::Float(x) => w.f64(*x),
            Value::Str(s) => w.str(s),
            Value::Array(items) => items.write_json(w),
            Value::Object(entries) => {
                let mut c = w.begin_object()?;
                for (key, item) in entries {
                    w.key(&mut c, key)?;
                    item.write_json(w)?;
                }
                w.end_object(c)
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}
