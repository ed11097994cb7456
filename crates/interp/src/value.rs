//! The interpreter's dynamic value model.
//!
//! Every Go-lite variable lives in an instrumented runtime
//! runtime [`grs_runtime::Cell`], so each read and write of interpreted
//! is a preemption point and a detector event — closures that capture
//! variables share the cells, exactly like Go's capture-by-reference.

use std::fmt;
use std::sync::{Arc, Mutex as StdMutex};

use grs_golite::ast::{Block, Names, Signature, Sym};
use grs_golite::names::FnvMap;
use grs_runtime::{Cell, Chan, Ctx, GoMap, GoSlice, Mutex, Once, RwMutex, WaitGroup};

use crate::env::Env;
use crate::InterpError;

/// A Go-lite runtime value.
#[derive(Clone)]
pub enum Value {
    /// `nil` (also the zero value of pointers, errors, interfaces).
    Nil,
    /// Booleans.
    Bool(bool),
    /// Integers (Go-lite folds all integer kinds into `i64`).
    Int(i64),
    /// Strings.
    Str(Arc<str>),
    /// A slice (reference type; shares its header and backing array).
    Slice(GoSlice<Value>),
    /// A map (reference type; thread-unsafe structure, as in Go).
    Map(GoMap<Key, Value>),
    /// A channel.
    Chan(Chan<Value>),
    /// A `sync.Mutex` **value** (assigning/copying it duplicates the lock —
    /// Observation 6).
    Mutex(Mutex),
    /// A `sync.RWMutex` value.
    RwMutex(RwMutex),
    /// A `sync.WaitGroup` value.
    WaitGroup(WaitGroup),
    /// A `sync.Once` value.
    Once(Once),
    /// A struct instance (fields are instrumented cells).
    Struct(StructRef),
    /// A pointer to a variable or field.
    Pointer(Cell<Value>),
    /// A function or closure (with its captured environment).
    Func(FuncValue),
}

impl Value {
    /// A short type tag for error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Nil => "nil",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Str(_) => "string",
            Value::Slice(_) => "slice",
            Value::Map(_) => "map",
            Value::Chan(_) => "chan",
            Value::Mutex(_) => "sync.Mutex",
            Value::RwMutex(_) => "sync.RWMutex",
            Value::WaitGroup(_) => "sync.WaitGroup",
            Value::Once(_) => "sync.Once",
            Value::Struct(_) => "struct",
            Value::Pointer(_) => "pointer",
            Value::Func(_) => "func",
        }
    }

    /// Go truthiness: only booleans are conditions.
    pub fn as_bool(&self) -> Result<bool, InterpError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(InterpError::plain(format!(
                "non-bool {} used as condition",
                other.type_name()
            ))),
        }
    }

    /// Integer extraction.
    pub fn as_int(&self) -> Result<i64, InterpError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(InterpError::plain(format!(
                "expected int, found {}",
                other.type_name()
            ))),
        }
    }

    /// Structural equality for `==`/`!=` (scalars, nil, and reference
    /// identity-free comparisons).
    pub fn go_eq(&self, other: &Value) -> Result<bool, InterpError> {
        Ok(match (self, other) {
            (Value::Nil, Value::Nil) => true,
            (Value::Nil, _) | (_, Value::Nil) => false,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (a, b) => {
                return Err(InterpError::plain(format!(
                    "cannot compare {} with {}",
                    a.type_name(),
                    b.type_name()
                )))
            }
        })
    }

    /// Deep copy with Go's value semantics: struct fields become fresh
    /// cells, and a contained `sync.Mutex` becomes an *independent* lock
    /// ([`Mutex::copy_value`]) — reproducing Listing 7's bug when structs
    /// or mutexes are passed by value. Reference types (slices, maps,
    /// channels, pointers) share as in Go. `names` spells the copied fields
    /// for their cells' debug names.
    #[must_use]
    pub fn deep_copy(&self, ctx: &Ctx, names: &Names) -> Value {
        match self {
            Value::Mutex(m) => Value::Mutex(m.copy_value(ctx)),
            Value::RwMutex(_) => {
                // Copying an RWMutex value likewise severs the lock.
                Value::RwMutex(ctx.rwmutex("rwmutex (copy)"))
            }
            Value::WaitGroup(_) => Value::WaitGroup(ctx.waitgroup("waitgroup (copy)")),
            Value::Once(_) => Value::Once(ctx.once("once (copy)")),
            Value::Struct(s) => Value::Struct(s.copy_value(ctx, names)),
            // Reference types and scalars: plain clone.
            other => other.clone(),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => f.write_str("nil"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Slice(_) => f.write_str("<slice>"),
            Value::Map(_) => f.write_str("<map>"),
            Value::Chan(c) => write!(f, "<{}>", c.name()),
            Value::Mutex(m) => write!(f, "<{}>", m.name()),
            Value::RwMutex(m) => write!(f, "<{}>", m.name()),
            Value::WaitGroup(w) => write!(f, "<{}>", w.name()),
            Value::Once(o) => write!(f, "<{}>", o.name()),
            Value::Struct(s) => write!(f, "<{}>", s.type_name),
            Value::Pointer(_) => f.write_str("<ptr>"),
            Value::Func(fv) => write!(f, "<func {}>", fv.name),
        }
    }
}

/// Map keys: the comparable scalar subset of [`Value`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    /// `nil` key.
    Nil,
    /// Boolean key.
    Bool(bool),
    /// Integer key.
    Int(i64),
    /// String key.
    Str(String),
}

impl Key {
    /// Converts a value into a key; errors on non-comparable values.
    pub fn from_value(v: &Value) -> Result<Key, InterpError> {
        Ok(match v {
            Value::Nil => Key::Nil,
            Value::Bool(b) => Key::Bool(*b),
            Value::Int(i) => Key::Int(*i),
            Value::Str(s) => Key::Str(s.to_string()),
            other => {
                return Err(InterpError::plain(format!(
                    "{} is not a valid map key",
                    other.type_name()
                )))
            }
        })
    }

    /// Converts back into a value.
    #[must_use]
    pub fn to_value(&self) -> Value {
        match self {
            Key::Nil => Value::Nil,
            Key::Bool(b) => Value::Bool(*b),
            Key::Int(i) => Value::Int(*i),
            Key::Str(s) => Value::Str(Arc::from(s.as_str())),
        }
    }
}

/// A shared struct instance: each field is an instrumented cell.
#[derive(Clone)]
pub struct StructRef {
    /// The declared type name, for display (`"struct"` for an anonymous
    /// struct type).
    pub type_name: Arc<str>,
    /// The declared type name as the program's [`Sym`], keying its methods
    /// ([`sym::EMPTY`](grs_golite::ast::sym::EMPTY) for an anonymous
    /// struct type).
    pub type_sym: Sym,
    fields: Arc<StdMutex<FnvMap<Sym, Cell<Value>>>>,
}

impl StructRef {
    /// Creates an instance with the given field cells.
    #[must_use]
    pub fn new(type_name: &str, type_sym: Sym, fields: FnvMap<Sym, Cell<Value>>) -> Self {
        StructRef {
            type_name: Arc::from(type_name),
            type_sym,
            fields: Arc::new(StdMutex::new(fields)),
        }
    }

    /// The cell behind `name`, creating a nil field on first touch of an
    /// undeclared name (Go-lite is dynamically checked); `names` spells it
    /// for the new cell's debug name.
    pub fn field(&self, ctx: &Ctx, name: Sym, names: &Names) -> Cell<Value> {
        let mut f = self.fields.lock().unwrap_or_else(|e| e.into_inner());
        f.entry(name)
            .or_insert_with(|| {
                ctx.cell(
                    &format!("{}.{}", self.type_name, names.text(name)),
                    Value::Nil,
                )
            })
            .clone()
    }

    /// Go value semantics: copying a struct copies every field into fresh
    /// cells (deep-copying mutex values along the way).
    #[must_use]
    pub fn copy_value(&self, ctx: &Ctx, names: &Names) -> StructRef {
        let src = self.fields.lock().unwrap_or_else(|e| e.into_inner());
        let mut fields = FnvMap::default();
        for (name, cell) in src.iter() {
            let v = cell.load().deep_copy(ctx, names);
            fields.insert(
                *name,
                ctx.cell(
                    &format!("{}.{} (copy)", self.type_name, names.text(*name)),
                    v,
                ),
            );
        }
        StructRef {
            type_name: self.type_name.clone(),
            type_sym: self.type_sym,
            fields: Arc::new(StdMutex::new(fields)),
        }
    }
}

/// A function or closure value.
#[derive(Clone)]
pub struct FuncValue {
    /// Display name (declared name or `"func literal"`).
    pub name: Arc<str>,
    /// The signature.
    pub sig: Arc<Signature>,
    /// The body.
    pub body: Arc<Block>,
    /// The captured lexical environment (closures capture by reference).
    pub env: Env,
    /// Bound receiver for method values: `(param name, is_pointer, value)`.
    pub receiver: Option<(Sym, bool, Box<Value>)>,
}
