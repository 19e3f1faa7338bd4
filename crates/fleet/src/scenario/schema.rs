//! The scenario codec's machinery. Each object type of the format lists
//! its keys once, in a [`Fields::walk`]; handed an [`Io`], the same walk
//! either reads a JSON object into the value or writes the value out.
//! Reading starts from the value's defaults, so an absent optional key
//! keeps its default, and refuses any key the walk did not visit.
//! Every error names the key path it is about, e.g.
//! `control.policy.alpha` or `classes[1].slo_s`.

use super::invalid;
use super::json::{self, Json};
use super::{policy_name, POLICIES};
use crate::faults::ChaosKind;
use crate::scheduler::Policy;
use crate::Result;
use std::fmt;
use std::mem::discriminant;

/// Where a value sits in a scenario file: a chain of stack frames,
/// rendered only into an error message.
#[derive(Debug, Clone, Copy)]
pub(super) enum Path<'a> {
    /// The document itself.
    Root,
    /// An object key under its parent.
    Key(&'a Path<'a>, &'a str),
    /// An array element under its parent.
    Index(&'a Path<'a>, usize),
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Path::Root => f.write_str("scenario"),
            Path::Key(Path::Root, key) => f.write_str(key),
            Path::Key(parent, key) => write!(f, "{parent}.{key}"),
            Path::Index(parent, i) => write!(f, "{parent}[{i}]"),
        }
    }
}

/// A value the codec reads and writes whole: a scalar, a name, a list,
/// or, through [`Fields`], an object.
pub(super) trait Value {
    /// Overwrites `self` with the value found at `path`. An object
    /// keeps the current value of each optional key it leaves out.
    fn read(&mut self, json: &Json, path: Path<'_>) -> Result<()>;
    /// The value's JSON form (`&mut` because writing shares
    /// [`Fields::walk`] with reading).
    fn write(&mut self) -> Json;
}

/// An object type of the format.
pub(super) trait Fields {
    /// Visits each key of the type once, in file order.
    fn walk(&mut self, io: &mut Io<'_>) -> Result<()>;
}

/// A value read from nothing — the document, a list element, or the
/// `Some` of an optional key — starts from its blank, in which every
/// optional key holds its default.
pub(super) trait Blank: Value {
    fn blank() -> Self;
}

/// Reads a [`Blank`] value from `json`.
pub(super) fn fresh<T: Blank>(json: &Json, path: Path<'_>) -> Result<T> {
    let mut value = T::blank();
    value.read(json, path)?;
    Ok(value)
}

impl<T: Fields> Value for T {
    fn read(&mut self, json: &Json, path: Path<'_>) -> Result<()> {
        read_object(json, path, |io| self.walk(io))
    }

    fn write(&mut self) -> Json {
        write_object(|io| self.walk(io))
    }
}

/// One direction of the codec, handed to every [`Fields::walk`].
pub(super) enum Io<'a> {
    /// Reads keys out of one JSON object, marking each one visited.
    Read {
        /// Where the object sits.
        path: Path<'a>,
        fields: &'a [(String, Json)],
        seen: Vec<bool>,
        /// A bare string found where an object was expected: the tag of
        /// a unit variant (`"fail"`), until [`Io::variant`] takes it.
        tag: Option<&'a str>,
    },
    /// Appends keys to one JSON object, in walk order.
    Write {
        fields: Vec<(String, Json)>,
        /// Set by [`Io::unit`]: the object is written as this bare tag.
        tag: Option<&'static str>,
    },
}

fn read_object(
    json: &Json,
    path: Path<'_>,
    walk: impl FnOnce(&mut Io<'_>) -> Result<()>,
) -> Result<()> {
    let (fields, tag) = match json {
        Json::Obj(fields) => (fields.as_slice(), None),
        Json::Str(tag) => (&[][..], Some(tag.as_str())),
        _ => return Err(invalid(format!("{path} must be a JSON object"))),
    };
    let mut io = Io::Read {
        path,
        fields,
        seen: vec![false; fields.len()],
        tag,
    };
    walk(&mut io)?;
    if let Io::Read {
        fields, seen, tag, ..
    } = io
    {
        if tag.is_some() {
            return Err(invalid(format!("{path} must be a JSON object")));
        }
        if let Some(i) = seen.iter().position(|&s| !s) {
            let key = Path::Key(&path, &fields[i].0);
            return Err(invalid(format!("unknown key {key}")));
        }
    }
    Ok(())
}

fn write_object(walk: impl FnOnce(&mut Io<'_>) -> Result<()>) -> Json {
    let mut io = Io::Write {
        fields: Vec::new(),
        tag: None,
    };
    // Writing fails only on an enum variant missing from its table, and
    // the round-trip tests render every variant.
    #[allow(clippy::expect_used)]
    walk(&mut io).expect("every variant is listed in its table");
    match io {
        Io::Write { tag: Some(tag), .. } => json::str(tag),
        Io::Write { fields, .. } => Json::Obj(fields),
        Io::Read { .. } => unreachable!("a writer stays a writer"),
    }
}

/// Reading: the value under `key`, marked visited.
fn lookup<'a>(fields: &'a [(String, Json)], seen: &mut [bool], key: &str) -> Option<&'a Json> {
    let i = fields.iter().position(|(k, _)| k == key)?;
    seen[i] = true;
    Some(&fields[i].1)
}

fn missing(path: Path<'_>) -> crate::FleetError {
    invalid(format!("missing key {path}"))
}

/// The entry of `variants` tagged `name`, or an error at `path`
/// listing the tags.
fn choose<T>(
    variants: impl IntoIterator<Item = (&'static str, T)>,
    name: &str,
    path: Path<'_>,
) -> Result<(&'static str, T)> {
    let mut known = Vec::new();
    for (tag, v) in variants {
        if tag == name {
            return Ok((tag, v));
        }
        known.push(tag);
    }
    Err(invalid(format!(
        "{path}: unknown {name:?} (known: {})",
        known.join(", ")
    )))
}

/// Writing: the tag of the entry of `variants` that is `this`'s variant.
fn tag_of<T>(
    this: &T,
    variants: impl IntoIterator<Item = (&'static str, T)>,
) -> Result<&'static str> {
    let d = discriminant(this);
    variants
        .into_iter()
        .find(|(_, v)| discriminant(v) == d)
        .map(|(tag, _)| tag)
        .ok_or_else(|| invalid("variant missing from its table".to_owned()))
}

impl Io<'_> {
    /// A required key.
    pub(super) fn req<V: Value>(&mut self, key: &str, v: &mut V) -> Result<()> {
        self.field(key, v, true)
    }

    /// An optional key: when absent, `v` keeps its default. Always
    /// written.
    pub(super) fn opt<V: Value>(&mut self, key: &str, v: &mut V) -> Result<()> {
        self.field(key, v, false)
    }

    /// An optional key written only when `Some`.
    pub(super) fn maybe<V: Blank>(&mut self, key: &str, v: &mut Option<V>) -> Result<()> {
        match self {
            Io::Write { fields, .. } => {
                fields.extend(v.as_mut().map(|v| (key.to_owned(), v.write())))
            }
            Io::Read {
                path, fields, seen, ..
            } => {
                if let Some(json) = lookup(fields, seen, key) {
                    *v = Some(fresh(json, Path::Key(path, key))?);
                }
            }
        }
        Ok(())
    }

    /// A key read and ignored, never written (a free-text note).
    pub(super) fn skip(&mut self, key: &str) {
        if let Io::Read { fields, seen, .. } = self {
            lookup(fields, seen, key);
        }
    }

    fn field<V: Value>(&mut self, key: &str, v: &mut V, required: bool) -> Result<()> {
        match self {
            Io::Write { fields, .. } => fields.push((key.to_owned(), v.write())),
            Io::Read {
                path, fields, seen, ..
            } => {
                let path = Path::Key(path, key);
                match lookup(fields, seen, key) {
                    Some(json) => v.read(json, path)?,
                    None if required => return Err(missing(path)),
                    None => {}
                }
            }
        }
        Ok(())
    }

    /// A required key holding an object whose keys `walk` visits: the
    /// body of an enum variant.
    pub(super) fn object(
        &mut self,
        key: &str,
        walk: impl FnOnce(&mut Io<'_>) -> Result<()>,
    ) -> Result<()> {
        match self {
            Io::Write { fields, .. } => fields.push((key.to_owned(), write_object(walk))),
            Io::Read {
                path, fields, seen, ..
            } => {
                let path = Path::Key(path, key);
                let json = lookup(fields, seen, key).ok_or_else(|| missing(path))?;
                read_object(json, path, walk)?;
            }
        }
        Ok(())
    }

    /// An externally tagged enum: `{"tag": body}`, or the bare string
    /// `"tag"` for a unit variant (see [`unit`](Self::unit)).
    /// `variants` pairs each tag with a blank of its variant; reading
    /// replaces `this` with the blank the file names. Returns `this`'s
    /// tag, the key its body sits under.
    pub(super) fn variant<T>(
        &mut self,
        this: &mut T,
        variants: impl IntoIterator<Item = (&'static str, T)>,
    ) -> Result<&'static str> {
        let Io::Read {
            path, fields, tag, ..
        } = self
        else {
            return tag_of(this, variants);
        };
        let name = match (tag.take(), *fields) {
            (Some(name), _) => name,
            (None, [(name, _)]) => name.as_str(),
            _ => {
                let tags: Vec<_> = variants.into_iter().map(|(t, _)| t).collect();
                return Err(invalid(format!(
                    "{path} must have exactly one of: {}",
                    tags.join(", ")
                )));
            }
        };
        let (tag, blank) = choose(variants, name, *path)?;
        *this = blank;
        Ok(tag)
    }

    /// A unit variant of [`variant`](Self::variant), spelled as its
    /// bare tag string.
    pub(super) fn unit(&mut self, tag: &'static str) -> Result<()> {
        match self {
            Io::Write { tag: unit, .. } => *unit = Some(tag),
            Io::Read { path, fields, .. } if !fields.is_empty() => {
                return Err(invalid(format!("{path} must be the string {tag:?}")));
            }
            Io::Read { .. } => {}
        }
        Ok(())
    }

    /// An internally tagged enum: a required string `key` names the
    /// variant, and the variant's own keys sit beside it. `variants`
    /// pairs each tag with a blank of its variant; reading replaces
    /// `this` with the blank the file names.
    pub(super) fn tag<T>(
        &mut self,
        key: &str,
        this: &mut T,
        variants: impl IntoIterator<Item = (&'static str, T)>,
    ) -> Result<()> {
        match self {
            Io::Write { fields, .. } => {
                fields.push((key.to_owned(), json::str(tag_of(this, variants)?)));
            }
            Io::Read {
                path, fields, seen, ..
            } => {
                let path = Path::Key(path, key);
                let json = lookup(fields, seen, key).ok_or_else(|| missing(path))?;
                read_name(this, json, path, variants)?;
            }
        }
        Ok(())
    }
}

fn must<T>(value: Option<T>, path: Path<'_>, what: &str) -> Result<T> {
    value.ok_or_else(|| invalid(format!("{path} must be {what}")))
}

/// Scalars, each with the [`Json`] accessor that reads it, what the
/// error says it must be, and the constructor that writes it.
macro_rules! scalars {
    ($($t:ty: $get:expr, $what:literal, $put:expr;)*) => {$(
        impl Value for $t {
            fn read(&mut self, json: &Json, path: Path<'_>) -> Result<()> {
                *self = must(($get)(json), path, $what)?;
                Ok(())
            }

            fn write(&mut self) -> Json {
                ($put)(*self)
            }
        }

        impl Blank for $t {
            fn blank() -> Self {
                <$t>::default()
            }
        }
    )*};
}

scalars! {
    f64: Json::as_f64, "a number", json::num;
    u64: Json::as_u64, "a non-negative integer", json::int;
    usize: Json::as_usize, "a non-negative integer", json::uint;
    u32: |v: &Json| v.as_u64().and_then(|v| u32::try_from(v).ok()),
        "an integer in [0, 2^32)", |v| json::int(u64::from(v));
    bool: Json::as_bool, "a bool", Json::Bool;
}

impl Value for String {
    fn read(&mut self, json: &Json, path: Path<'_>) -> Result<()> {
        must(json.as_str(), path, "a string")?.clone_into(self);
        Ok(())
    }

    fn write(&mut self) -> Json {
        json::str(self.as_str())
    }
}

impl<T: Blank> Value for Vec<T> {
    fn read(&mut self, json: &Json, path: Path<'_>) -> Result<()> {
        *self = must(json.as_arr(), path, "an array")?
            .iter()
            .enumerate()
            .map(|(i, item)| fresh(item, Path::Index(&path, i)))
            .collect::<Result<_>>()?;
        Ok(())
    }

    fn write(&mut self) -> Json {
        Json::Arr(self.iter_mut().map(Value::write).collect())
    }
}

/// Reads a name-valued enum: `names` spells every value.
fn read_name<T>(
    this: &mut T,
    json: &Json,
    path: Path<'_>,
    names: impl IntoIterator<Item = (&'static str, T)>,
) -> Result<()> {
    let name = must(json.as_str(), path, "a string")?;
    *this = choose(names, name, path)?.1;
    Ok(())
}

impl Value for Policy {
    fn read(&mut self, json: &Json, path: Path<'_>) -> Result<()> {
        read_name(self, json, path, POLICIES.map(|p| (policy_name(p), p)))
    }

    fn write(&mut self) -> Json {
        json::str(policy_name(*self))
    }
}

impl Value for ChaosKind {
    fn read(&mut self, json: &Json, path: Path<'_>) -> Result<()> {
        read_name(self, json, path, ChaosKind::ALL.map(|k| (k.name(), k)))
    }

    fn write(&mut self) -> Json {
        json::str(self.name())
    }
}
