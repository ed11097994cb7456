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
//! Beside the stacks the depot interns the run's *names* — the objects and
//! goroutines events mention — as [`NameId`]s, so an [`Event`] carries a
//! `u32` where it would otherwise clone an `Arc<str>`. The kernel interns a
//! name when it first emits it, so name ids follow the event stream.
//!
//! Ids are assigned in first-intern order, so for a deterministic schedule
//! the id assignment is itself deterministic. Ids are only meaningful for
//! the depot *generation* that produced them: [`StackDepot::reset`] (used
//! by campaign workers to recycle the arena between runs) invalidates
//! outstanding ids while keeping the allocations warm.
//!
//! [`Event`]: crate::Event

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

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

/// A compact reference to an interned object or goroutine name: entry `i`
/// of the run's name table (see [`StackDepot::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(pub u32);

impl NameId {
    /// The id as a table index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of the depot tree: the leaf frame of an interned stack plus the
/// id of the stack below it.
#[derive(Debug, Clone)]
struct Node {
    parent: StackId,
    func: Arc<str>,
    call_line: u32,
    depth: u32,
}

#[derive(Debug, Default)]
struct DepotInner {
    /// `nodes[i]` is the node for `StackId(i + 1)`.
    nodes: Vec<Node>,
    /// Function-name interner; queried by `&str` so an intern *hit* never
    /// allocates.
    funcs: HashMap<Arc<str>, u32>,
    /// Child lookup: `(parent, func id, call_line)` → existing child id.
    index: HashMap<(u32, u32, u32), StackId>,
    /// Lifetime intern attempts (hits + misses), for the stats block.
    interned_total: u64,
    /// `names[i]` is the text of `NameId(i)`.
    names: Vec<Arc<str>>,
    /// Name interner, queried by `&str` like `funcs`.
    name_ids: HashMap<Arc<str>, NameId>,
}

impl DepotInner {
    fn clear(&mut self) {
        self.nodes.clear();
        self.funcs.clear();
        self.index.clear();
        self.interned_total = 0;
        self.names.clear();
        self.name_ids.clear();
    }

    fn func_id(&mut self, func: &str) -> (u32, Arc<str>) {
        if let Some((name, &id)) = self.funcs.get_key_value(func) {
            return (id, name.clone());
        }
        let name: Arc<str> = Arc::from(func);
        let id = self.funcs.len() as u32;
        self.funcs.insert(name.clone(), id);
        (id, name)
    }
}

/// Counters describing a depot's contents — the §3.5 memory story in
/// numbers (reported per run in [`crate::MonitorStats`] and aggregated by
/// the campaign engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepotStats {
    /// Distinct interned stacks (depot tree nodes).
    pub stacks: usize,
    /// Deepest interned stack, in frames.
    pub max_depth: usize,
    /// Lifetime intern requests; `requests - stacks` were deduplicated.
    pub intern_requests: u64,
}

/// A shared, thread-safe stack interner.
///
/// Cloning the handle aliases the same depot (campaign workers share one
/// per arena). The runtime only locks the depot on frame push — memory
/// accesses, the hot path, copy the goroutine's current `StackId` without
/// touching it.
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
        d.interned_total += 1;
        let (func_id, func) = d.func_id(func);
        if let Some(&id) = d.index.get(&(parent.0, func_id, call_line)) {
            return id;
        }
        let depth = parent_depth(&d, parent) as u32 + 1;
        d.nodes.push(Node {
            parent,
            func,
            call_line,
            depth,
        });
        let id = StackId(d.nodes.len() as u32);
        d.index.insert((parent.0, func_id, call_line), id);
        id
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
        if id.is_empty() {
            return 0;
        }
        self.lock().nodes[id.0 as usize - 1].depth as usize
    }

    /// Materializes `id` into an owned root-first [`Stack`] (report paths
    /// only — never per access).
    #[must_use]
    pub fn resolve(&self, id: StackId) -> Stack {
        let d = self.lock();
        let mut frames = Vec::with_capacity(parent_depth(&d, id));
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

    /// The stats block.
    #[must_use]
    pub fn stats(&self) -> DepotStats {
        let d = self.lock();
        DepotStats {
            stacks: d.nodes.len(),
            max_depth: d.nodes.iter().map(|n| n.depth as usize).max().unwrap_or(0),
            intern_requests: d.interned_total,
        }
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

    /// Interns an object or goroutine name, returning the id it already had
    /// or the next one.
    #[must_use]
    pub(crate) fn intern_name(&self, name: &str) -> NameId {
        let mut d = self.lock();
        if let Some(&id) = d.name_ids.get(name) {
            return id;
        }
        let name: Arc<str> = Arc::from(name);
        let id = NameId(d.names.len() as u32);
        d.names.push(name.clone());
        d.name_ids.insert(name, id);
        id
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

    /// Replaces the contents with a [`StackDepot::snapshot`], ids as recorded:
    /// entry `i` of `stacks` becomes `StackId(i + 1)`, entry `i` of `names`
    /// `NameId(i)`. Replay restores one per trace and resolves ids only, so
    /// nothing is hashed and the interners' indexes stay empty. That is
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
        d.clear();
        for node in stacks {
            let depth = parent_depth(&d, node.parent) as u32 + 1;
            d.nodes.push(Node {
                parent: node.parent,
                func: node.func.clone(),
                call_line: node.call_line,
                depth,
            });
        }
        d.names.extend_from_slice(names);
    }

    /// Starts a new generation: drops every interned stack while keeping
    /// the node table and index allocations warm. All outstanding
    /// [`StackId`]s and [`NameId`]s become invalid. Campaign workers call
    /// this between runs so id assignment stays a deterministic function of
    /// the single run.
    pub fn reset(&self) {
        self.lock().clear();
    }
}

fn parent_depth(d: &DepotInner, id: StackId) -> usize {
    if id.is_empty() {
        0
    } else {
        d.nodes[id.0 as usize - 1].depth as usize
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
        assert_eq!(depot.stats().intern_requests, 4);
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
        assert_eq!(depot.stats().max_depth, 2);
    }

    #[test]
    fn reset_starts_a_new_generation() {
        let depot = StackDepot::new();
        let a = depot.push(StackId::EMPTY, "main", 0);
        let _ = depot.push(a, "F", 0);
        depot.reset();
        assert!(depot.is_empty());
        assert_eq!(depot.stats(), DepotStats::default());
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

    #[test]
    fn shared_handles_alias_one_depot() {
        let depot = StackDepot::new();
        let clone = depot.clone();
        let a = clone.push(StackId::EMPTY, "main", 0);
        assert_eq!(depot.len(), 1);
        assert_eq!(depot.resolve(a).func_names(), vec!["main"]);
    }
}
