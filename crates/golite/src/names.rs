//! Interned spellings: [`Sym`] and the per-file [`Names`] table.
//!
//! The parser reads every identifier and literal spelling once, at its
//! token, and hands the rest of the pipeline a [`Sym`] — a `Copy` index
//! into the [`Names`] table that travels with the [`File`](crate::ast::File).
//! Comparing, hashing and copying a name is then integer work; the text
//! comes back through [`Names::text`] only where a message, a finding or a
//! debug name for the runtime is rendered.
//!
//! The table is **per file**, not process-wide: campaign workers parse
//! concurrently and share nothing, no spelling outlives the unit it came
//! from, and an id depends only on the source text — `Sym`s are handed out
//! in first-occurrence order after a fixed prelude ([`sym`]) of the
//! spellings the rules and the interpreter test for, so `name == sym::LOCK`
//! is an integer compare in every file. A `Sym` from one file means nothing
//! in another, and a `Sym` orders by first occurrence, not alphabet: code
//! whose output order depends on names sorts by [`Names::text`].

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// An interned spelling: an index into the [`Names`] table of the file it
/// was parsed from.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The table index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True for [`sym::EMPTY`], the absent name (an unnamed parameter, a
    /// `range` clause without a value variable).
    #[must_use]
    pub fn is_empty(self) -> bool {
        self == sym::EMPTY
    }

    /// True for a name that binds nothing: absent, or the blank `_`.
    #[must_use]
    pub fn is_blank(self) -> bool {
        self == sym::EMPTY || self == sym::BLANK
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

/// Declares the prelude: one `pub const` per spelling, numbered in order,
/// and the matching text list every table starts from.
macro_rules! prelude {
    ($($name:ident = $text:literal,)*) => {
        /// Spellings interned at fixed ids in every [`Names`](crate::names::Names)
        /// table, so testing for one is an integer compare.
        pub mod sym {
            use super::Sym;
            #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
            #[repr(u32)]
            enum Id { $($name,)* }
            $(
                #[doc = concat!("`", $text, "`")]
                pub const $name: Sym = Sym(Id::$name as u32);
            )*
        }
        const PRELUDE: &[&str] = &[$($text,)*];
    };
}

prelude! {
    EMPTY = "",
    BLANK = "_",
    TRUE = "true",
    FALSE = "false",
    NIL = "nil",
    IOTA = "iota",
    ERR = "err",
    ATOMIC = "atomic",
    // sync methods
    LOCK = "Lock",
    UNLOCK = "Unlock",
    RLOCK = "RLock",
    RUNLOCK = "RUnlock",
    ADD = "Add",
    DONE = "Done",
    WAIT = "Wait",
    DO = "Do",
    // builtins
    MAKE = "make",
    NEW = "new",
    LEN = "len",
    CAP = "cap",
    APPEND = "append",
    CLOSE = "close",
    DELETE = "delete",
    PANIC = "panic",
    PRINTLN = "println",
    PRINT = "print",
    SLEEP = "sleep",
    GOSCHED = "gosched",
    // types with a zero value the interpreter knows
    INT = "int",
    INT8 = "int8",
    INT16 = "int16",
    INT32 = "int32",
    INT64 = "int64",
    UINT = "uint",
    UINT8 = "uint8",
    UINT16 = "uint16",
    UINT32 = "uint32",
    UINT64 = "uint64",
    BYTE = "byte",
    RUNE = "rune",
    FLOAT32 = "float32",
    FLOAT64 = "float64",
    STRING = "string",
    BOOL = "bool",
    SYNC_MUTEX = "sync.Mutex",
    SYNC_RWMUTEX = "sync.RWMutex",
    SYNC_WAITGROUP = "sync.WaitGroup",
    SYNC_ONCE = "sync.Once",
}

/// Slots in a fresh table: a power of two, at most half full once the
/// prelude and a small file's own names are in.
const INITIAL_SLOTS: usize = 256;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

/// The spellings of one file: every text once, in one buffer.
#[derive(Clone)]
pub struct Names {
    /// All spellings, back to back.
    text: String,
    /// Where each [`Sym`]'s spelling ends in `text` (it starts where the
    /// previous one ends).
    ends: Vec<u32>,
    /// Open-addressed index: `Sym + 1` per occupied slot, `0` for empty.
    /// The length is a power of two and at least twice `ends.len()`.
    slots: Vec<u32>,
    /// Reused by [`Names::intern_dotted`].
    scratch: String,
}

impl Names {
    /// A table holding the prelude, with room for the names of a source
    /// text of `src_len` bytes.
    #[must_use]
    pub fn for_source(src_len: usize) -> Names {
        static PRELUDE_TABLE: OnceLock<Names> = OnceLock::new();
        let base = PRELUDE_TABLE.get_or_init(|| {
            let mut n = Names {
                text: String::new(),
                ends: Vec::new(),
                slots: vec![0; INITIAL_SLOTS],
                scratch: String::new(),
            };
            for t in PRELUDE {
                n.intern(t);
            }
            n
        });
        let mut text = String::with_capacity(base.text.len() + src_len / 4);
        text.push_str(&base.text);
        let mut ends = Vec::with_capacity(base.ends.len() + src_len / 8);
        ends.extend_from_slice(&base.ends);
        Names {
            text,
            ends,
            slots: base.slots.clone(),
            scratch: String::new(),
        }
    }

    /// How many spellings the table holds, prelude included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Never true: every table holds the prelude.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The spelling of `sym`.
    ///
    /// # Panics
    ///
    /// When `sym` was not handed out by this table (or a clone of it).
    #[must_use]
    pub fn text(&self, sym: Sym) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The [`Sym`] of `text`, when the file spells it anywhere.
    #[must_use]
    pub fn get(&self, text: &str) -> Option<Sym> {
        self.probe(text).ok()
    }

    /// The [`Sym`] of `text`, adding it on first sight.
    pub fn intern(&mut self, text: &str) -> Sym {
        match self.probe(text) {
            Ok(sym) => sym,
            Err(slot) => {
                let sym = Sym(self.ends.len() as u32);
                self.slots[slot] = sym.0 + 1;
                self.push_text(text);
                if self.ends.len() * 2 > self.slots.len() {
                    self.grow();
                }
                sym
            }
        }
    }

    /// The [`Sym`] of `a.b` — a qualified type name such as `sync.Mutex`.
    pub fn intern_dotted(&mut self, a: Sym, b: Sym) -> Sym {
        let mut dotted = std::mem::take(&mut self.scratch);
        dotted.clear();
        dotted.push_str(self.text(a));
        dotted.push('.');
        dotted.push_str(self.text(b));
        let sym = self.intern(&dotted);
        self.scratch = dotted;
        sym
    }

    /// `Ok(sym)` when `text` is present, else `Err(the empty slot it
    /// belongs in)`.
    fn probe(&self, text: &str) -> Result<Sym, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = fnv1a(text.as_bytes()) as usize & mask;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                s => {
                    let sym = Sym(s - 1);
                    if self.text(sym) == text {
                        return Ok(sym);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    fn push_text(&mut self, text: &str) {
        self.text.push_str(text);
        self.ends.push(self.text.len() as u32);
    }

    fn grow(&mut self) {
        let mut slots = vec![0u32; self.slots.len() * 2];
        let mask = slots.len() - 1;
        for i in 0..self.ends.len() {
            let sym = Sym(i as u32);
            let mut slot = fnv1a(self.text(sym).as_bytes()) as usize & mask;
            while slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            slots[slot] = sym.0 + 1;
        }
        self.slots = slots;
    }
}

/// Two tables are equal when they hold the same spellings under the same
/// [`Sym`]s.
impl PartialEq for Names {
    fn eq(&self, other: &Names) -> bool {
        self.ends == other.ends && self.text == other.text
    }
}

impl Eq for Names {}

impl fmt::Debug for Names {
    /// The spellings the file added, in [`Sym`] order (the prelude is the
    /// same in every table).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((PRELUDE.len()..self.len()).map(|i| self.text(Sym(i as u32))))
            .finish()
    }
}

/// FNV-1a over the words a key hashes itself as: for the small integer
/// keys of this crate's side tables ([`Pos`](crate::token::Pos), [`Sym`]),
/// where SipHash costs more than the lookup it guards. The keys come from
/// the parser, not from outside input, so collision resistance buys
/// nothing here.
#[derive(Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(FNV_PRIME);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` hashed with [`FnvHasher`].
pub type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prelude_ids_are_fixed_and_texts_match() {
        let n = Names::for_source(0);
        assert_eq!(n.len(), PRELUDE.len());
        assert_eq!(n.text(sym::EMPTY), "");
        assert_eq!(n.text(sym::BLANK), "_");
        assert_eq!(n.text(sym::RUNLOCK), "RUnlock");
        assert_eq!(n.text(sym::SYNC_ONCE), "sync.Once");
        for (i, t) in PRELUDE.iter().enumerate() {
            assert_eq!(n.get(t), Some(Sym(i as u32)), "{t}");
        }
        assert!(sym::EMPTY.is_empty() && sym::EMPTY.is_blank());
        assert!(!sym::BLANK.is_empty() && sym::BLANK.is_blank());
        assert!(!sym::ERR.is_blank());
    }

    #[test]
    fn interning_is_first_occurrence_ordered_and_idempotent() {
        let mut n = Names::for_source(64);
        let a = n.intern("alpha");
        let b = n.intern("beta");
        assert_eq!(a.index() + 1, b.index());
        assert_eq!(n.intern("alpha"), a);
        assert_eq!(n.intern("Lock"), sym::LOCK);
        assert_eq!(n.text(b), "beta");
        assert_eq!(n.get("gamma"), None);
        assert_eq!(format!("{n:?}"), r#"["alpha", "beta"]"#);
    }

    #[test]
    fn dotted_names_meet_the_prelude() {
        let mut n = Names::for_source(0);
        let (sync, mutex) = (n.intern("sync"), n.intern("Mutex"));
        assert_eq!(n.intern_dotted(sync, mutex), sym::SYNC_MUTEX);
        let pkg = n.intern("pkg");
        let remote = n.intern_dotted(pkg, mutex);
        assert_eq!(n.text(remote), "pkg.Mutex");
    }

    #[test]
    fn the_index_grows_past_its_first_size() {
        let mut n = Names::for_source(0);
        let syms: Vec<Sym> = (0..1000).map(|i| n.intern(&format!("name{i}"))).collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(n.text(*s), format!("name{i}"));
            assert_eq!(n.get(&format!("name{i}")), Some(*s));
        }
        assert!(n.slots.len() >= 2 * n.len());
    }
}
