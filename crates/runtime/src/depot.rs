//! The stack depot: interned call stacks as 32-bit ids.
//!
//! §3.5 of the study reports that enabling the race detector costs ~4× test
//! time and 2–8× memory at Uber scale. Real ThreadSanitizer survives that
//! only because it never materializes a call stack per memory access:
//! stacks live once in a *stack depot* and every shadow word refers to one
//! by a compact id. This module is that design transplanted to the
//! simulated runtime.
//!
//! The depot is a tree (a trie over frames): each interned stack is a node
//! `(parent, Frame)`, so a goroutine's current stack is maintained
//! *incrementally* — pushing a frame interns one child node, popping walks
//! one parent edge, and taking the "snapshot" carried by an access event is
//! a `u32` copy. Two goroutines executing the same logical call chain share
//! the same [`StackId`], which is also what makes shadow-state comparisons
//! and dedup fingerprints cheap in `grs-detector`/`grs-deploy`.
//!
//! Beside the stacks the depot interns the run's *names* — the objects,
//! goroutines and source files events mention — as [`NameId`]s, so an
//! [`Event`] carries a `u32` where it would otherwise clone an `Arc<str>`.
//! The kernel interns a name when it first emits it, so name ids follow the
//! event stream.
//!
//! Ids are assigned in first-intern order, so for a deterministic schedule
//! the id assignment is itself deterministic. Ids are only meaningful for
//! the depot *generation* that produced them: [`StackDepot::reset`] (used
//! by campaign workers to recycle the arena between runs) invalidates
//! outstanding ids while keeping the allocations warm.
//!
//! The *texts* outlive a generation, as in TSan's depot: every function,
//! object, goroutine and file name is interned once into an FNV table and shared
//! as one `Arc<str>` — by the stack nodes, the name table, and the
//! runtime's object handles — so a worker that reruns a program under
//! many schedules hashes and allocates each name once, not once per run.
//! A new generation starts in O(1) (the per-generation entries carry a
//! generation stamp), and a table grown past a fixed bound is dropped at
//! the start of the next generation.
//!
//! [`Event`]: crate::Event

use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex, MutexGuard};

use grs_obs::hash::FnvMap;

use crate::event::{Frame, Stack};
use crate::trace::StackNode;

/// A compact reference to an interned call stack.
///
/// `StackId::EMPTY` (0) is the empty stack; every other id names a node in
/// the depot tree. The id is only meaningful together with the
/// [`StackDepot`] that issued it, and only until that depot is reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StackId(pub u32);

impl StackId {
    /// The empty stack (no frames pushed).
    pub const EMPTY: StackId = StackId(0);

    /// The raw id.
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// True for the empty-stack sentinel.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for StackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A compact reference to an interned object, goroutine or source-file
/// name: entry `i` of the run's name table (see [`StackDepot::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(pub u32);

impl NameId {
    /// The id as a table index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Texts a depot keeps before it drops them all at the start of a
/// generation. Ids are per generation, so the clear changes nothing a run
/// can observe; the bound only caps the memory of a worker whose programs
/// keep naming new things (generated tests, each with its own names).
const MAX_KEPT_TEXTS: usize = 1 << 12;

/// One node of the depot tree: the leaf frame of an interned stack plus the
/// id of the stack below it.
#[derive(Debug, Clone)]
struct Node {
    parent: StackId,
    func: Arc<str>,
    call_line: u32,
    depth: u32,
}

/// One interned text — a function, object or goroutine name — and the
/// [`NameId`] it has in the current generation, if it has one.
#[derive(Debug)]
struct Text {
    text: Arc<str>,
    /// The generation `name` was issued in; any other means none yet.
    name_gen: u32,
    name: NameId,
}

#[derive(Debug)]
struct DepotInner {
    /// Bumped by every reset and restore; stamps the per-generation
    /// entries of `texts` and `children`, so starting a generation clears
    /// neither. Never 0, which no stamp of a live entry holds.
    generation: u32,
    /// Every text interned since the table was last cleared: kept across
    /// generations, so a name costs one allocation per depot.
    texts: Vec<Text>,
    /// Text → index into `texts`; queried by `&str`, so a hit allocates
    /// nothing.
    text_ids: FnvMap<Arc<str>, u32>,
    /// `nodes[i]` is the node for `StackId(i + 1)`.
    nodes: Vec<Node>,
    /// Child lookup: `(parent, func text, call_line)` → the generation that
    /// interned the child, and its id. An entry of an older generation is a
    /// miss, and the insert that follows overwrites it.
    children: FnvMap<(u32, u32, u32), (u32, StackId)>,
    /// `names[i]` is the text of `NameId(i)`.
    names: Vec<Arc<str>>,
    /// Reused buffer for texts built from format arguments.
    scratch: String,
    /// Reused buffer for the root-first node paths of
    /// [`StackDepot::with_chains`].
    path: Vec<StackId>,
}

impl Default for DepotInner {
    fn default() -> Self {
        DepotInner {
            generation: 1,
            texts: Vec::new(),
            text_ids: FnvMap::default(),
            nodes: Vec::new(),
            children: FnvMap::default(),
            names: Vec::new(),
            scratch: String::new(),
            path: Vec::new(),
        }
    }
}

impl DepotInner {
    /// Drops the generation's stacks and names. Texts stay unless the table
    /// is past [`MAX_KEPT_TEXTS`] (or the stamp wrapped).
    fn new_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 || self.texts.len() > MAX_KEPT_TEXTS {
            self.texts.clear();
            self.text_ids.clear();
            self.children.clear();
            self.generation = 1;
        }
        self.nodes.clear();
        self.names.clear();
    }

    /// The index of `text` in the text table, interning it on a miss.
    fn text_id(&mut self, text: &str) -> u32 {
        if let Some(&i) = self.text_ids.get(text) {
            return i;
        }
        let text: Arc<str> = Arc::from(text);
        let i = self.texts.len() as u32;
        self.texts.push(Text {
            text: text.clone(),
            name_gen: 0,
            name: NameId(0),
        });
        self.text_ids.insert(text, i);
        i
    }

    /// `text` through the reusable buffer: an intern hit allocates nothing.
    fn text_id_fmt(&mut self, text: fmt::Arguments<'_>) -> u32 {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.write_fmt(text)
            .expect("formatting into a String cannot fail");
        let i = self.text_id(&buf);
        self.scratch = buf;
        i
    }

    /// Interns `parent -> func@call_line`, `func` being a text index.
    fn push(&mut self, parent: StackId, func: u32, call_line: u32) -> StackId {
        let key = (parent.0, func, call_line);
        if let Some(&(generation, id)) = self.children.get(&key) {
            if generation == self.generation {
                return id;
            }
        }
        let func = self.texts[func as usize].text.clone();
        let id = self.push_node(parent, func, call_line);
        self.children.insert(key, (self.generation, id));
        id
    }

    fn push_node(&mut self, parent: StackId, func: Arc<str>, call_line: u32) -> StackId {
        let depth = self.depth(parent) + 1;
        self.nodes.push(Node {
            parent,
            func,
            call_line,
            depth,
        });
        StackId(self.nodes.len() as u32)
    }

    fn depth(&self, id: StackId) -> u32 {
        if id.is_empty() {
            0
        } else {
            self.nodes[id.0 as usize - 1].depth
        }
    }

    /// Appends the nodes of `id` to `path`, root first.
    fn push_path(&self, path: &mut Vec<StackId>, id: StackId) {
        let start = path.len();
        let mut cur = id;
        while !cur.is_empty() {
            path.push(cur);
            cur = self.nodes[cur.0 as usize - 1].parent;
        }
        path[start..].reverse();
    }

    /// The name id of text `i`, issuing the generation's next one at its
    /// first use.
    fn name_id(&mut self, i: u32) -> NameId {
        let text = &mut self.texts[i as usize];
        if text.name_gen != self.generation {
            text.name_gen = self.generation;
            text.name = NameId(self.names.len() as u32);
            self.names.push(text.text.clone());
        }
        text.name
    }
}

/// The function names of one interned stack, root first, read in place
/// under the depot lock (see [`StackDepot::with_chains`]).
#[derive(Debug, Clone)]
pub struct Funcs<'a> {
    nodes: &'a [Node],
    path: std::slice::Iter<'a, StackId>,
}

impl<'a> Iterator for Funcs<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.path.next().map(|id| &*self.nodes[id.0 as usize - 1].func)
    }
}

/// A shared, thread-safe stack interner.
///
/// Cloning the handle aliases the same depot (campaign workers share one
/// per arena). The runtime locks the depot once per frame push or pop,
/// spawn, object creation, first access to an object and the first access
/// from a source file in a run — memory accesses, the hot path, copy the
/// goroutine's current `StackId` without touching it.
///
/// # Example
///
/// ```
/// use grs_runtime::{StackDepot, StackId};
///
/// let depot = StackDepot::new();
/// let main = depot.push(StackId::EMPTY, "main", 0);
/// let worker = depot.push(main, "ProcessJob", 42);
/// assert_eq!(depot.push(main, "ProcessJob", 42), worker); // deduplicated
/// assert_eq!(depot.resolve(worker).func_names(), vec!["main", "ProcessJob"]);
/// assert_eq!(depot.parent(worker), main);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StackDepot {
    inner: Arc<Mutex<DepotInner>>,
}

impl StackDepot {
    /// Creates an empty depot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, DepotInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Interns the stack `parent -> func@call_line`, reusing the existing
    /// node when this exact child was interned before.
    #[must_use]
    pub fn push(&self, parent: StackId, func: &str, call_line: u32) -> StackId {
        let mut d = self.lock();
        let func = d.text_id(func);
        d.push(parent, func, call_line)
    }

    /// Interns the root stack `name@0` of a new goroutine and returns it
    /// with the name's shared text and, when `named`, its [`NameId`] — one
    /// lock for all a spawn needs.
    pub(crate) fn push_goroutine(
        &self,
        name: &str,
        named: bool,
    ) -> (StackId, Arc<str>, Option<NameId>) {
        let mut d = self.lock();
        let text = d.text_id(name);
        let stack = d.push(StackId::EMPTY, text, 0);
        let id = named.then(|| d.name_id(text));
        (stack, d.texts[text as usize].text.clone(), id)
    }

    /// The stack a frame pop leaves: `id`'s parent, or `id` itself when it
    /// holds at most the goroutine's root frame.
    pub(crate) fn pop(&self, id: StackId) -> StackId {
        if id.is_empty() {
            return id;
        }
        let d = self.lock();
        let node = &d.nodes[id.0 as usize - 1];
        if node.depth > 1 {
            node.parent
        } else {
            id
        }
    }

    /// The stack below `id` (`EMPTY` for root frames and for `EMPTY`).
    #[must_use]
    pub fn parent(&self, id: StackId) -> StackId {
        if id.is_empty() {
            return StackId::EMPTY;
        }
        self.lock().nodes[id.0 as usize - 1].parent
    }

    /// Number of frames in the stack `id` names.
    #[must_use]
    pub fn depth(&self, id: StackId) -> usize {
        self.lock().depth(id) as usize
    }

    /// Materializes `id` into an owned root-first [`Stack`] (report paths
    /// only — never per access).
    #[must_use]
    pub fn resolve(&self, id: StackId) -> Stack {
        let d = self.lock();
        let mut frames = Vec::with_capacity(d.depth(id) as usize);
        let mut cur = id;
        while !cur.is_empty() {
            let node = &d.nodes[cur.0 as usize - 1];
            frames.push(Frame {
                func: node.func.clone(),
                call_line: node.call_line,
            });
            cur = node.parent;
        }
        frames.reverse();
        Stack::from_frames(frames)
    }

    /// Calls `f` with the text of name `object` and the function names of
    /// stacks `a` and `b`, root first, under one lock: nothing is cloned,
    /// and the paths are walked into a buffer the depot keeps, so a warm
    /// depot allocates nothing. What a race fingerprint reads, without
    /// resolving either stack.
    ///
    /// # Panics
    ///
    /// Panics if an id was not issued by this depot generation.
    pub fn with_chains<R>(
        &self,
        object: NameId,
        a: StackId,
        b: StackId,
        f: impl FnOnce(&str, Funcs<'_>, Funcs<'_>) -> R,
    ) -> R {
        let mut d = self.lock();
        let mut path = std::mem::take(&mut d.path);
        path.clear();
        d.push_path(&mut path, a);
        let split = path.len();
        d.push_path(&mut path, b);
        let (pa, pb) = path.split_at(split);
        let nodes = &d.nodes;
        let out = f(
            &d.names[object.index()],
            Funcs { nodes, path: pa.iter() },
            Funcs { nodes, path: pb.iter() },
        );
        d.path = path;
        out
    }

    /// Distinct stacks currently interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().nodes.len()
    }

    /// True when nothing has been interned (or the depot was just reset).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().nodes.is_empty()
    }

    /// Snapshots the contents in id order: the stack nodes, where entry `i`
    /// describes `StackId(i + 1)`, and the names, where entry `i` is the
    /// text of `NameId(i)`. A recording keeps this beside its events, and a
    /// replay puts it back ([`Trace::rebuild_depot_into`]).
    ///
    /// [`Trace::rebuild_depot_into`]: crate::Trace::rebuild_depot_into
    #[must_use]
    pub fn snapshot(&self) -> (Vec<StackNode>, Vec<Arc<str>>) {
        let d = self.lock();
        let stacks = d.nodes.iter().map(|n| StackNode {
            parent: n.parent,
            func: n.func.clone(),
            call_line: n.call_line,
        });
        (stacks.collect(), d.names.clone())
    }

    /// The shared text of `text`: what a runtime object keeps as its name,
    /// so naming one allocates only the first time the depot sees the text.
    pub(crate) fn text(&self, text: &str) -> Arc<str> {
        let mut d = self.lock();
        let i = d.text_id(text);
        d.texts[i as usize].text.clone()
    }

    /// [`StackDepot::text`] of a formatted text (`"{name}[header]"`),
    /// built in a reused buffer.
    pub(crate) fn text_fmt(&self, text: fmt::Arguments<'_>) -> Arc<str> {
        let mut d = self.lock();
        let i = d.text_id_fmt(text);
        d.texts[i as usize].text.clone()
    }

    /// Interns an object, goroutine or source-file name, returning the id
    /// it already had this generation or the next one.
    #[must_use]
    pub(crate) fn intern_name(&self, name: &str) -> NameId {
        let mut d = self.lock();
        let i = d.text_id(name);
        d.name_id(i)
    }

    /// The text of name `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this depot generation.
    #[must_use]
    pub fn name(&self, id: NameId) -> Arc<str> {
        self.lock().names[id.index()].clone()
    }

    /// Starts a new generation holding a [`StackDepot::snapshot`], ids as
    /// recorded: entry `i` of `stacks` becomes `StackId(i + 1)`, entry `i`
    /// of `names` `NameId(i)`. Replay restores one per trace and resolves
    /// ids only, so nothing is hashed, nothing enters the text table, and
    /// no child or name lookup of the generation finds an entry. That is
    /// sound because a generation is interned by a live run or restored by
    /// a replay, never both: the kernel interns only into a depot its run
    /// reset.
    ///
    /// # Panics
    ///
    /// Panics if a node's parent is not an earlier node (the decoder
    /// rejects such a table).
    pub(crate) fn restore(&self, stacks: &[StackNode], names: &[Arc<str>]) {
        let mut d = self.lock();
        d.new_generation();
        for node in stacks {
            let _ = d.push_node(node.parent, node.func.clone(), node.call_line);
        }
        d.names.extend_from_slice(names);
    }

    /// Starts a new generation: every outstanding [`StackId`] and
    /// [`NameId`] becomes invalid, and the next ones are issued from the
    /// start again, so id assignment stays a deterministic function of the
    /// single run. The interned texts stay (up to a fixed bound), and so do
    /// the tables' allocations. Campaign workers call this between runs.
    pub fn reset(&self) {
        self.lock().new_generation();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_incremental_and_deduplicated() {
        let depot = StackDepot::new();
        let a = depot.push(StackId::EMPTY, "main", 0);
        let b = depot.push(a, "F", 10);
        let b2 = depot.push(a, "F", 10);
        assert_eq!(b, b2);
        assert_eq!(depot.len(), 2);
        let c = depot.push(a, "F", 11); // different call line: new node
        assert_ne!(b, c);
        assert_eq!(depot.len(), 3);
    }

    #[test]
    fn resolve_is_root_first() {
        let depot = StackDepot::new();
        let a = depot.push(StackId::EMPTY, "main", 0);
        let b = depot.push(a, "ProcessAll", 7);
        let s = depot.resolve(b);
        assert_eq!(s.func_names(), vec!["main", "ProcessAll"]);
        assert_eq!(s.frames()[1].call_line, 7);
        assert!(depot.resolve(StackId::EMPTY).is_empty());
    }

    #[test]
    fn parent_and_depth_walk_the_tree() {
        let depot = StackDepot::new();
        let a = depot.push(StackId::EMPTY, "main", 0);
        let b = depot.push(a, "F", 0);
        assert_eq!(depot.parent(b), a);
        assert_eq!(depot.parent(a), StackId::EMPTY);
        assert_eq!(depot.depth(b), 2);
        assert_eq!(depot.depth(StackId::EMPTY), 0);
    }

    #[test]
    fn reset_starts_a_new_generation() {
        let depot = StackDepot::new();
        let a = depot.push(StackId::EMPTY, "main", 0);
        let _ = depot.push(a, "F", 0);
        depot.reset();
        assert!(depot.is_empty());
        // Same pushes produce the same ids again — per-run determinism.
        let a2 = depot.push(StackId::EMPTY, "main", 0);
        assert_eq!(a, a2);
    }

    #[test]
    fn names_intern_in_first_intern_order() {
        let depot = StackDepot::new();
        let _ = depot.push(StackId::EMPTY, "main", 0);
        let x = depot.intern_name("x");
        let w = depot.intern_name("worker");
        assert_eq!(
            (x, w, depot.intern_name("x")),
            (NameId(0), NameId(1), NameId(0))
        );
        assert_eq!(&*depot.name(w), "worker");
        assert_eq!(depot.snapshot().1.len(), 2);
        depot.reset();
        assert!(depot.snapshot().1.is_empty());
        assert_eq!(depot.intern_name("worker"), NameId(0));
    }

    /// What a run can observe of the depot: the stack and name ids it was
    /// issued, and the snapshot.
    type Observed = (Vec<StackId>, Vec<NameId>, (Vec<StackNode>, Vec<Arc<str>>));

    /// One generation's worth of interning, as a kernel run does it.
    fn a_run(depot: &StackDepot) -> Observed {
        let (main, _, _) = depot.push_goroutine("main", false);
        let (worker, _, w) = depot.push_goroutine("worker", true);
        let f = depot.push(worker, "F", 12);
        let g = depot.push(main, "G", 3);
        let names = vec![
            w.expect("named"),
            depot.intern_name("x"),
            depot.intern_name("m[header]"),
            depot.intern_name("x"),
        ];
        let stacks = vec![main, worker, f, g, depot.push(worker, "F", 12)];
        (stacks, names, depot.snapshot())
    }

    #[test]
    fn texts_survive_reset_while_ids_restart_in_first_intern_order() {
        let depot = StackDepot::new();
        let first = a_run(&depot);
        let texts = depot.lock().texts.len();
        let x = depot.text("x");
        depot.reset();
        assert!(depot.snapshot().0.is_empty() && depot.snapshot().1.is_empty());
        // A different order gets ids in its own first-intern order...
        assert_eq!(depot.intern_name("m[header]"), NameId(0));
        assert_eq!(depot.intern_name("x"), NameId(1));
        assert_eq!(depot.push(StackId::EMPTY, "G", 3), StackId(1));
        // ...from the texts already kept: nothing new, the same `Arc`.
        assert_eq!(depot.lock().texts.len(), texts);
        assert!(Arc::ptr_eq(&depot.name(NameId(1)), &x));
        assert!(Arc::ptr_eq(
            &depot.resolve(StackId(1)).frames()[0].func,
            &depot.text("G")
        ));
        // And the same run again gets the same ids.
        depot.reset();
        assert_eq!(a_run(&depot), first);
        assert_eq!(first.0, [1, 2, 3, 4, 3].map(StackId));
        assert_eq!(first.1, [0, 1, 2, 1].map(NameId));
    }

    #[test]
    fn a_clear_at_the_bound_changes_no_id_snapshot_or_name() {
        let fresh = a_run(&StackDepot::new());
        let depot = StackDepot::new();
        let _ = a_run(&depot);
        for i in 0..MAX_KEPT_TEXTS {
            let _ = depot.text_fmt(format_args!("filler {i}"));
        }
        let kept = depot.lock().texts.len();
        assert!(kept > MAX_KEPT_TEXTS);
        // Ids of the generation in progress are untouched by a full table.
        assert_eq!(depot.intern_name("x"), NameId(1));
        assert_eq!(&*depot.name(NameId(2)), "m[header]");
        depot.reset();
        assert!(
            depot.lock().texts.is_empty(),
            "the table is cleared at the bound"
        );
        let after = a_run(&depot);
        assert_eq!(after, fresh);
        for (i, name) in after.2 .1.iter().enumerate() {
            assert_eq!(depot.name(NameId(i as u32)), *name);
        }
        // Below the bound the next generation keeps its texts.
        let texts = depot.lock().texts.len();
        depot.reset();
        assert_eq!(a_run(&depot), fresh);
        assert_eq!(depot.lock().texts.len(), texts);
    }

    #[test]
    fn restore_after_live_generations_resolves_the_traces_own_names() {
        let fresh = a_run(&StackDepot::new());
        let depot = StackDepot::new();
        let _ = a_run(&depot);
        depot.reset();
        let _ = a_run(&depot);
        let root = |func: &str, call_line| StackNode {
            parent: StackId::EMPTY,
            func: Arc::from(func),
            call_line,
        };
        let stacks = vec![
            root("worker", 0),
            StackNode {
                parent: StackId(1),
                func: Arc::from("H"),
                call_line: 9,
            },
        ];
        let names: Vec<Arc<str>> = vec![Arc::from("m[header]"), Arc::from("y")];
        depot.restore(&stacks, &names);
        assert_eq!(depot.snapshot(), (stacks, names));
        assert_eq!(&*depot.name(NameId(0)), "m[header]");
        assert_eq!(&*depot.name(NameId(1)), "y");
        assert_eq!(depot.resolve(StackId(2)).func_names(), vec!["worker", "H"]);
        assert_eq!(depot.len(), 2);
        // A live generation after the replay starts from the kept texts.
        depot.reset();
        assert_eq!(a_run(&depot), fresh);
    }

    #[test]
    fn pop_keeps_the_root_frame() {
        let depot = StackDepot::new();
        let (main, _, _) = depot.push_goroutine("main", false);
        let f = depot.push(main, "F", 1);
        assert_eq!(depot.pop(f), main);
        assert_eq!(depot.pop(main), main);
        assert_eq!(depot.pop(StackId::EMPTY), StackId::EMPTY);
    }

    #[test]
    fn shared_handles_alias_one_depot() {
        let depot = StackDepot::new();
        let clone = depot.clone();
        let a = clone.push(StackId::EMPTY, "main", 0);
        assert_eq!(depot.len(), 1);
        assert_eq!(depot.resolve(a).func_names(), vec!["main"]);
    }
}
