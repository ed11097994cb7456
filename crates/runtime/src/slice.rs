//! [`GoSlice`] — Go slices with their three-word header semantics.
//!
//! A Go slice value is a header of three words — pointer, length, capacity
//! (the study's "meta fields") — over a shared backing array. The paper's
//! single largest Go-specific race category (Table 2: 391 races) is
//! concurrent slice access, and its subtlest instance (Listing 5) races a
//! lock-protected `append` against the *unprotected header copy* made when
//! the slice is passed by value to a goroutine.
//!
//! This model gives each header word and each element its own shadow
//! address:
//!
//! * [`GoSlice::append`] reads and writes the header words and writes the
//!   element slot (growing reallocates, which also writes the pointer
//!   word);
//! * [`GoSlice::copy_value`] *reads* the three header words — with whatever
//!   locks the caller happens to hold — and produces a new header aliasing
//!   the same backing array, exactly like Go's pass-by-value;
//! * cloning the handle aliases the same header (capture by reference).
//!
//! Simplification vs. real Go: after a growth reallocation, value-copied
//! headers keep observing the live backing array rather than the abandoned
//! one. This does not affect which accesses conflict — the detector's view
//! (header reads vs. header writes, element reads vs. element writes) is
//! identical — only the values a stale header would observe.

use std::panic::Location;
use std::sync::{Arc, Mutex};

use crate::ctx::Ctx;
use crate::event::AccessKind;
use crate::ids::Addr;

#[derive(Debug)]
struct Backing<T> {
    elems: Vec<T>,
    elem_addrs: Vec<Addr>,
}

#[derive(Debug)]
struct Header {
    /// `{name}[header]`: the object all three words are reported as.
    object: Arc<str>,
    addr_ptr: Addr,
    addr_len: Addr,
    addr_cap: Addr,
    /// (len, cap) of this header view.
    dims: Mutex<(usize, usize)>,
}

/// A Go slice of `T`.
///
/// # Example
///
/// ```
/// use grs_runtime::{GoSlice, NullMonitor, Program, RunConfig, Runtime};
///
/// let p = Program::new("slice", |ctx| {
///     let s: GoSlice<i64> = GoSlice::make(ctx, "results", 0);
///     s.append(ctx, 10);
///     s.append(ctx, 20);
///     assert_eq!(s.len(ctx), 2);
///     assert_eq!(s.get(ctx, 1), 20);
/// });
/// let (outcome, _) = Runtime::new(RunConfig::with_seed(3)).run(&p, NullMonitor);
/// assert!(outcome.is_clean());
/// ```
pub struct GoSlice<T> {
    name: Arc<str>,
    header: Arc<Header>,
    backing: Arc<Mutex<Backing<T>>>,
}

impl<T> Clone for GoSlice<T> {
    fn clone(&self) -> Self {
        GoSlice {
            name: self.name.clone(),
            header: self.header.clone(),
            backing: self.backing.clone(),
        }
    }
}

impl<T> std::fmt::Debug for GoSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoSlice").field("name", &self.name).finish()
    }
}

impl<T: Clone + Send + 'static> GoSlice<T> {
    /// Go's `make([]T, len)` — elements require `T: Default` to zero-fill,
    /// so the common empty case is `make(ctx, name, 0)` for any `T`.
    #[must_use]
    pub fn make(ctx: &Ctx, name: &str, len: usize) -> Self
    where
        T: Default,
    {
        let s = Self::empty(ctx, name);
        {
            let mut b = s.backing.lock().unwrap_or_else(|e| e.into_inner());
            for _ in 0..len {
                b.elems.push(T::default());
                b.elem_addrs.push(Addr(ctx.kernel().alloc_id()));
            }
            *s.header.dims.lock().unwrap_or_else(|e| e.into_inner()) = (len, len);
        }
        s
    }

    /// An empty slice (`var s []T`).
    #[must_use]
    pub fn empty(ctx: &Ctx, name: &str) -> Self {
        let k = ctx.kernel();
        GoSlice {
            name: k.depot().text(name),
            header: Arc::new(Header {
                object: k.depot().text_fmt(format_args!("{name}[header]")),
                addr_ptr: Addr(k.alloc_id()),
                addr_len: Addr(k.alloc_id()),
                addr_cap: Addr(k.alloc_id()),
                dims: Mutex::new((0, 0)),
            }),
            backing: Arc::new(Mutex::new(Backing {
                elems: Vec::new(),
                elem_addrs: Vec::new(),
            })),
        }
    }

    /// The debug name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    fn touch_header(&self, ctx: &Ctx, kind: AccessKind, loc: &'static Location<'static>) {
        let header = &self.header;
        for addr in [header.addr_ptr, header.addr_len, header.addr_cap] {
            ctx.access(addr, || &*header.object, kind, loc);
        }
    }

    /// Reads the length word (a bounds check or `len(s)`).
    fn read_len(&self, ctx: &Ctx, loc: &'static Location<'static>) -> usize {
        let header = &self.header;
        ctx.access(header.addr_len, || &*header.object, AccessKind::Read, loc);
        header.dims.lock().unwrap_or_else(|e| e.into_inner()).0
    }

    /// Accesses element `i` at `addr`.
    fn touch_elem(
        &self,
        ctx: &Ctx,
        addr: Addr,
        i: usize,
        kind: AccessKind,
        loc: &'static Location<'static>,
    ) {
        ctx.access(addr, || format!("{}[{i}]", self.name), kind, loc);
    }

    /// `s = append(s, value)`.
    ///
    /// Reads then writes the header words (a growth step also rewrites the
    /// pointer word) and writes the new element slot. Concurrent `append`s,
    /// or an `append` concurrent with *any* header read (including
    /// [`GoSlice::copy_value`] and [`GoSlice::len`]), race.
    #[track_caller]
    pub fn append(&self, ctx: &Ctx, value: T) {
        let loc = Location::caller();
        // Read current len/cap.
        self.touch_header(ctx, AccessKind::Read, loc);
        let (len, cap) = *self.header.dims.lock().unwrap_or_else(|e| e.into_inner());
        let grows = len == cap;
        // Write back the updated header (all three words when growing).
        self.touch_header(ctx, AccessKind::Write, loc);
        let elem_addr = {
            let mut b = self.backing.lock().unwrap_or_else(|e| e.into_inner());
            if b.elems.len() <= len {
                b.elems.resize_with(len + 1, || value.clone());
                while b.elem_addrs.len() < len + 1 {
                    let a = Addr(ctx.kernel().alloc_id());
                    b.elem_addrs.push(a);
                }
            }
            b.elems[len] = value;
            b.elem_addrs[len]
        };
        {
            let mut dims = self.header.dims.lock().unwrap_or_else(|e| e.into_inner());
            dims.0 = len + 1;
            if grows {
                dims.1 = (cap * 2).max(1);
            }
        }
        self.touch_elem(ctx, elem_addr, len, AccessKind::Write, loc);
    }

    /// `s[i]` — reads the length word (bounds check) and the element.
    ///
    /// # Panics
    ///
    /// Panics (recorded as a goroutine panic, like Go's
    /// `index out of range`) when `i >= len`.
    #[track_caller]
    pub fn get(&self, ctx: &Ctx, i: usize) -> T {
        let loc = Location::caller();
        let len = self.read_len(ctx, loc);
        assert!(i < len, "index out of range [{i}] with length {len}");
        let (v, addr) = {
            let b = self.backing.lock().unwrap_or_else(|e| e.into_inner());
            (b.elems[i].clone(), b.elem_addrs[i])
        };
        self.touch_elem(ctx, addr, i, AccessKind::Read, loc);
        v
    }

    /// `s[i] = value`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`, like Go.
    #[track_caller]
    pub fn set(&self, ctx: &Ctx, i: usize, value: T) {
        let loc = Location::caller();
        let len = self.read_len(ctx, loc);
        assert!(i < len, "index out of range [{i}] with length {len}");
        let addr = {
            let mut b = self.backing.lock().unwrap_or_else(|e| e.into_inner());
            b.elems[i] = value;
            b.elem_addrs[i]
        };
        self.touch_elem(ctx, addr, i, AccessKind::Write, loc);
    }

    /// `len(s)` — reads the length header word.
    #[track_caller]
    #[must_use]
    pub fn len(&self, ctx: &Ctx) -> usize {
        self.read_len(ctx, Location::caller())
    }

    /// True when `len(s) == 0`.
    #[track_caller]
    #[must_use]
    pub fn is_empty(&self, ctx: &Ctx) -> bool {
        self.len(ctx) == 0
    }

    /// Passing the slice *by value* (Listing 5's bug): copies the three
    /// header words — instrumented as unprotected reads — into a fresh
    /// header that shares the backing array.
    #[track_caller]
    #[must_use]
    pub fn copy_value(&self, ctx: &Ctx) -> GoSlice<T> {
        let loc = Location::caller();
        self.touch_header(ctx, AccessKind::Read, loc);
        let dims = *self.header.dims.lock().unwrap_or_else(|e| e.into_inner());
        let k = ctx.kernel();
        GoSlice {
            name: self.name.clone(),
            header: Arc::new(Header {
                object: self.header.object.clone(),
                addr_ptr: Addr(k.alloc_id()),
                addr_len: Addr(k.alloc_id()),
                addr_cap: Addr(k.alloc_id()),
                dims: Mutex::new(dims),
            }),
            backing: self.backing.clone(),
        }
    }

    /// Uninstrumented snapshot of the current elements (for assertions in
    /// tests and examples, not part of the simulated program).
    #[must_use]
    pub fn snapshot(&self) -> Vec<T> {
        let len = self.header.dims.lock().unwrap_or_else(|e| e.into_inner()).0;
        let b = self.backing.lock().unwrap_or_else(|e| e.into_inner());
        b.elems.iter().take(len).cloned().collect()
    }
}
