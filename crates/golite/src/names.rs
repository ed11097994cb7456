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
//!
//! A compiled program keeps its table as long as it runs, so the table
//! holds nothing it does not read: the prelude's spellings and its index
//! are shared by every table, and a file's own spellings and their ends
//! are held at their length. The interner that builds a table while the
//! parser runs, index included, is kept per thread and reused, so a parse
//! allocates the finished table and nothing else for its names.

use std::fmt;
use std::hash::Hasher;
use std::sync::OnceLock;

use grs_obs::hash::FnvHasher;

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

/// Slots in a fresh parse-time index: a power of two, at most half full
/// once the prelude and a small file's own names are in.
const INITIAL_SLOTS: usize = 256;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

/// The spelling of `sym` in a table whose own spellings are `text`, each
/// ending at its entry of `ends`.
fn spelling<'a>(text: &'a str, ends: &[u32], sym: u32) -> &'a str {
    let Some(own) = (sym as usize).checked_sub(PRELUDE.len()) else {
        return PRELUDE[sym as usize];
    };
    let start = if own == 0 { 0 } else { ends[own - 1] as usize };
    &text[start..ends[own] as usize]
}

/// Where `text` sits in the open-addressed index `slots` (`Sym + 1` per
/// occupied slot, `0` for empty; the length a power of two): `Ok(sym)` when
/// `spelled(sym)` is `text`, else `Err(the empty slot it belongs in)`.
fn probe<'a>(
    slots: &[u32],
    hash: u64,
    text: &str,
    spelled: impl Fn(u32) -> &'a str,
) -> Result<u32, usize> {
    let mask = slots.len() - 1;
    let mut slot = hash as usize & mask;
    loop {
        match slots[slot] {
            0 => return Err(slot),
            s if spelled(s - 1) == text => return Ok(s - 1),
            _ => slot = (slot + 1) & mask,
        }
    }
}

/// Enters `sym`, whose spelling hashes to `hash` and is not in `slots`
/// yet, at the first empty slot of its probe sequence.
fn insert(slots: &mut [u32], hash: u64, sym: usize) {
    let mask = slots.len() - 1;
    let mut slot = hash as usize & mask;
    while slots[slot] != 0 {
        slot = (slot + 1) & mask;
    }
    slots[slot] = sym as u32 + 1;
}

/// The prelude's index, [`INITIAL_SLOTS`] wide: [`Names::get`] asks it
/// first, and every parse-time index starts as a copy of it.
fn prelude_slots() -> &'static [u32] {
    static SLOTS: OnceLock<Box<[u32]>> = OnceLock::new();
    SLOTS.get_or_init(|| {
        let mut slots = vec![0; INITIAL_SLOTS];
        for (sym, text) in PRELUDE.iter().enumerate() {
            insert(&mut slots, fnv1a(text.as_bytes()), sym);
        }
        slots.into()
    })
}

/// The spellings of one file: the [`sym`] prelude, shared by every table,
/// then the file's own texts once each, in one buffer, held at its length.
/// The index that found names while parsing stays with the parser.
#[derive(Clone)]
pub struct Names {
    /// The file's own spellings, back to back.
    text: Box<str>,
    /// Where each own spelling ends in `text` (it starts where the
    /// previous one ends).
    ends: Box<[u32]>,
}

impl Names {
    /// How many spellings the table holds, prelude included.
    #[must_use]
    pub fn len(&self) -> usize {
        PRELUDE.len() + self.ends.len()
    }

    /// Never true: every table holds the prelude.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The spelling of `sym`.
    ///
    /// # Panics
    ///
    /// When `sym` was not handed out by this table (or a clone of it).
    #[must_use]
    pub fn text(&self, sym: Sym) -> &str {
        spelling(&self.text, &self.ends, sym.0)
    }

    /// The [`Sym`] of `text`, when the file spells it anywhere.
    ///
    /// The prelude is looked up in its index, the file's own spellings by
    /// a scan in first-occurrence order: a table is small, and the name a
    /// program is asked for — its entry function, `main` — is the first
    /// spelling of a `package main` file.
    #[must_use]
    pub fn get(&self, text: &str) -> Option<Sym> {
        let prelude = probe(prelude_slots(), fnv1a(text.as_bytes()), text, |sym| {
            PRELUDE[sym as usize]
        });
        match prelude {
            Ok(sym) => Some(Sym(sym)),
            Err(_) => (PRELUDE.len()..self.len())
                .map(|i| Sym(i as u32))
                .find(|&sym| self.text(sym) == text),
        }
    }
}

/// Builds one file's [`Names`] while it is parsed. It is kept from file to
/// file, emptied, so a parse reuses the room the last one grew: the
/// spellings are copied out at their length once, by [`Interner::finish`].
#[derive(Default)]
pub(crate) struct Interner {
    /// Own spellings so far, back to back.
    text: String,
    /// Where each own spelling ends in `text`.
    ends: Vec<u32>,
    /// Open-addressed index over prelude and own spellings alike: `Sym + 1`
    /// per occupied slot, `0` for empty. The length is a power of two and
    /// at least twice the spellings' count.
    slots: Vec<u32>,
    /// Reused by [`Interner::intern_dotted`].
    dotted: String,
}

impl Interner {
    /// Starts a file: nothing but the prelude is spelled.
    pub(crate) fn start(&mut self) {
        self.text.clear();
        self.ends.clear();
        self.slots.clear();
        self.slots.extend_from_slice(prelude_slots());
    }

    /// The [`Sym`] of `text`, adding it on first sight.
    pub(crate) fn intern(&mut self, text: &str) -> Sym {
        let hash = fnv1a(text.as_bytes());
        let spelled = |sym| spelling(&self.text, &self.ends, sym);
        match probe(&self.slots, hash, text, spelled) {
            Ok(sym) => Sym(sym),
            Err(slot) => {
                let sym = (PRELUDE.len() + self.ends.len()) as u32;
                self.slots[slot] = sym + 1;
                self.text.push_str(text);
                self.ends.push(self.text.len() as u32);
                if (sym as usize + 1) * 2 > self.slots.len() {
                    self.grow();
                }
                Sym(sym)
            }
        }
    }

    /// The [`Sym`] of `a.b` — a qualified type name such as `sync.Mutex`.
    pub(crate) fn intern_dotted(&mut self, a: Sym, b: Sym) -> Sym {
        let mut dotted = std::mem::take(&mut self.dotted);
        dotted.clear();
        dotted.push_str(spelling(&self.text, &self.ends, a.0));
        dotted.push('.');
        dotted.push_str(spelling(&self.text, &self.ends, b.0));
        let sym = self.intern(&dotted);
        self.dotted = dotted;
        sym
    }

    fn grow(&mut self) {
        let len = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(len, 0);
        for sym in 0..PRELUDE.len() + self.ends.len() {
            let hash = fnv1a(spelling(&self.text, &self.ends, sym as u32).as_bytes());
            insert(&mut self.slots, hash, sym);
        }
    }

    /// The file's table, at its length; the interner keeps its room for
    /// the next file.
    pub(crate) fn finish(&self) -> Names {
        Names {
            text: self.text.as_str().into(),
            ends: self.ends.as_slice().into(),
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn interner() -> Interner {
        let mut n = Interner::default();
        n.start();
        n
    }

    #[test]
    fn prelude_ids_are_fixed_and_texts_match() {
        let n = interner().finish();
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
        let mut i = interner();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_eq!(a.index() + 1, b.index());
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.intern("Lock"), sym::LOCK);
        let n = i.finish();
        assert_eq!(n.text(b), "beta");
        assert_eq!(n.get("alpha"), Some(a));
        assert_eq!(n.get("gamma"), None);
        assert_eq!(format!("{n:?}"), r#"["alpha", "beta"]"#);
    }

    #[test]
    fn dotted_names_meet_the_prelude() {
        let mut i = interner();
        let (sync, mutex) = (i.intern("sync"), i.intern("Mutex"));
        assert_eq!(i.intern_dotted(sync, mutex), sym::SYNC_MUTEX);
        let pkg = i.intern("pkg");
        let remote = i.intern_dotted(pkg, mutex);
        assert_eq!(i.finish().text(remote), "pkg.Mutex");
    }

    #[test]
    fn the_index_grows_past_its_first_size() {
        let mut i = interner();
        let syms: Vec<Sym> = (0..1000).map(|k| i.intern(&format!("name{k}"))).collect();
        assert!(i.slots.len() >= 2 * (PRELUDE.len() + syms.len()));
        let n = i.finish();
        for (k, s) in syms.iter().enumerate() {
            assert_eq!(n.text(*s), format!("name{k}"));
            assert_eq!(n.get(&format!("name{k}")), Some(*s));
        }
        assert_eq!(n.ends.len(), 1000);
    }

    #[test]
    fn a_restarted_interner_forgets_the_last_file() {
        let mut i = interner();
        let first = i.intern("first");
        i.start();
        assert_eq!(i.intern("second"), first);
        let n = i.finish();
        assert_eq!(n.get("first"), None);
        assert_eq!(format!("{n:?}"), r#"["second"]"#);
    }
}
