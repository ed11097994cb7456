//! Intraprocedural control-flow graphs over the Go-lite AST.
//!
//! The CFG is built per function declaration, with one **context** per
//! execution thread the function creates: context 0 is the function's own
//! body, and every `go func(){...}(...)` statement spawns a fresh context
//! whose entry block is connected to the spawning block by a spawn edge.
//! Blocks carry *events* — the only facts the lockset pass needs:
//!
//! * [`Event::Acquire`]/[`Event::Release`] for `x.Lock()`, `x.Unlock()`,
//!   `x.RLock()`, `x.RUnlock()` (a `defer x.Unlock()` simply never emits a
//!   release, which models "held to the end of the function" exactly),
//! * [`Event::Access`] for reads/writes of trackable variables, with an
//!   `atomic` flag for `sync/atomic` calls and a `cond_of` tag linking a
//!   read to the `if` branch it guards (the double-checked-locking shape),
//! * [`Event::Call`] for calls that resolve within the file (named
//!   functions, receiver methods, function-typed parameters) — the raw
//!   material of the interprocedural layer in
//!   [`callgraph`](crate::callgraph) and [`summary`](crate::summary).
//!
//! Variable identity comes from [`resolve`](crate::resolve): a package-level
//! variable keys the same in every function of the file, a receiver field
//! keys by *receiver type* (so `(g *Gate) get` and `(g *Gate) set` meet),
//! and locals key by their resolved symbol — two locals that shadow each
//! other never collide.
//!
//! A [`VarKey`] is a `u32` id into the file's [`Keys`] table, which holds
//! each place once: its root (a global's or receiver type's [`Sym`], a
//! local's [`SymbolId`]) plus its selectors, as a (parent key, selector)
//! trie — so turning an expression into a key interns and formats nothing.
//! Keys are an *ordered* key: locksets are sorted slices of them and the
//! summary layer sorts by them, and that order reaches the findings, while
//! a `Sym` orders by first occurrence. So [`build_file`] ranks a file's keys
//! once, after every function is built — by variant (global < field <
//! local), then root text or symbol id, then path text — and renumbers
//! every event: from then on, id order *is* text order. An access's source
//! spelling needs no table of its own: it is the identifier the place is
//! spelled from plus the key's path. Everything that is only compared —
//! call targets, function and receiver-type names, the method spellings
//! tested for — stays a `Sym`.

use std::cmp::Ordering;
use std::ops::Range;

use crate::ast::{sym, Block, BranchKind, Decl, Expr, File, FuncDecl, Names, Stmt, Sym, Type, UnaryOp};
use crate::names::FnvMap;
use crate::resolve::{Binding, Resolution, SymbolId, SymbolKind};
use crate::token::Pos;

/// Index into [`FuncCfg::blocks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(pub usize);

/// How a lock is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockMode {
    /// `RLock` — excludes writers only.
    Read,
    /// `Lock` — exclusive.
    Write,
}

/// The root of a place expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarRoot {
    /// A package-level variable, keyed by name (file-wide identity).
    Global(Sym),
    /// A field chain on a method receiver, keyed by the receiver's type
    /// name (so all methods of one type agree); [`sym::EMPTY`] when the
    /// receiver's type is not a name.
    Field(Sym),
    /// A function-local symbol (param, `:=`, `var`, loop var, named
    /// result) — identity is the resolved symbol.
    Local(SymbolId),
}

impl VarRoot {
    /// Where the variant sorts: global < field < local.
    fn rank(self) -> u8 {
        match self {
            VarRoot::Global(_) => 0,
            VarRoot::Field(_) => 1,
            VarRoot::Local(_) => 2,
        }
    }

    /// The root's text: a global's name, a receiver type's name (`?` when
    /// it has none); `None` for a local, which is known by its symbol.
    #[must_use]
    pub fn text(self, names: &Names) -> Option<&str> {
        match self {
            VarRoot::Global(n) => Some(names.text(n)),
            VarRoot::Field(t) if t.is_empty() => Some("?"),
            VarRoot::Field(t) => Some(names.text(t)),
            VarRoot::Local(_) => None,
        }
    }
}

/// A trackable place — a root plus a selector path (`g.mu`, `s.stats.n`,
/// `x`) — as an id into its file's [`Keys`]. After [`build_file`], ids
/// order as the places' text does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarKey(u32);

impl VarKey {
    /// The table index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One place: its root, and the place it selects `sel` from (`None` for
/// the root itself), `depth` selectors below the root.
#[derive(Debug, Clone, Copy)]
struct Node {
    root: VarRoot,
    parent: Option<VarKey>,
    sel: Sym,
    depth: u32,
}

/// The places of one file, each once.
#[derive(Debug, Default)]
pub struct Keys {
    places: Vec<Node>,
}

impl Keys {
    /// How many places the file has.
    #[must_use]
    pub fn len(&self) -> usize {
        self.places.len()
    }

    /// True for a file without trackable places.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.places.is_empty()
    }

    /// Every key, in id order.
    pub fn iter(&self) -> impl Iterator<Item = VarKey> {
        (0..self.places.len() as u32).map(VarKey)
    }

    /// The root `key` selects from.
    #[must_use]
    pub fn root(&self, key: VarKey) -> VarRoot {
        self.places[key.index()].root
    }

    /// True when the key has file-wide identity (global or receiver field)
    /// rather than per-function identity.
    #[must_use]
    pub fn is_file_wide(&self, key: VarKey) -> bool {
        matches!(self.root(key), VarRoot::Global(_) | VarRoot::Field(_))
    }

    /// The selector path below the root: `".mu"`, `".stats.n"`, `""`.
    #[must_use]
    pub fn path_text(&self, key: VarKey, names: &Names) -> String {
        let mut out = String::new();
        self.push_path(key, names, &mut out);
        out
    }

    fn push_path(&self, key: VarKey, names: &Names, out: &mut String) {
        let p = self.places[key.index()];
        if let Some(parent) = p.parent {
            self.push_path(parent, names, out);
            out.push('.');
            out.push_str(names.text(p.sel));
        }
    }

    /// How a lock is named in a message: `mu`, `Gate.mu` for a receiver
    /// field, a local's path without its root (`""` for the local itself).
    #[must_use]
    pub fn text(&self, key: VarKey, names: &Names) -> String {
        let path = self.path_text(key, names);
        match self.root(key).text(names) {
            Some(root) => format!("{root}{path}"),
            None => path.trim_start_matches('.').to_string(),
        }
    }

    /// The source spelling of an access to `key` spelled from the
    /// identifier `spelled`: `g.mu` where [`Keys::text`] says `Gate.mu`.
    #[must_use]
    pub fn spelling(&self, spelled: Sym, key: VarKey, names: &Names) -> String {
        let mut out = names.text(spelled).to_string();
        self.push_path(key, names, &mut out);
        out
    }

    /// Renumbers the keys so id order is `(variant, root text or symbol id,
    /// path text)` order; returns each old id's new id.
    fn rank(&mut self, names: &Names) -> Vec<VarKey> {
        let mut order: Vec<VarKey> = self.iter().collect();
        order.sort_unstable_by(|&a, &b| self.cmp_text(a, b, names));
        let mut new_id = vec![VarKey(0); order.len()];
        for (new, old) in order.iter().enumerate() {
            new_id[old.index()] = VarKey(new as u32);
        }
        self.places = order
            .iter()
            .map(|old| {
                let p = self.places[old.index()];
                Node {
                    parent: p.parent.map(|k| new_id[k.index()]),
                    ..p
                }
            })
            .collect();
        new_id
    }

    /// The order of two places' text.
    fn cmp_text(&self, a: VarKey, b: VarKey, names: &Names) -> Ordering {
        let roots = match (self.root(a), self.root(b)) {
            (VarRoot::Local(x), VarRoot::Local(y)) => x.cmp(&y),
            (ra, rb) => (ra.rank(), ra.text(names)).cmp(&(rb.rank(), rb.text(names))),
        };
        roots.then_with(|| self.cmp_path(a, b, names))
    }

    /// The order of two places' selector paths, one selector at a time —
    /// which is the order of their dotted text, since `.` sorts before
    /// every identifier character.
    fn cmp_path(&self, a: VarKey, b: VarKey, names: &Names) -> Ordering {
        let (na, nb) = (self.places[a.index()], self.places[b.index()]);
        match (na.depth.cmp(&nb.depth), na.parent, nb.parent) {
            // The deeper path against the other: its prefix of the same
            // depth first, then longer is greater.
            (Ordering::Greater, Some(pa), _) => self.cmp_path(pa, b, names).then(Ordering::Greater),
            (Ordering::Less, _, Some(pb)) => self.cmp_path(a, pb, names).then(Ordering::Less),
            (Ordering::Equal, Some(pa), Some(pb)) if a != b => self
                .cmp_path(pa, pb, names)
                .then_with(|| names.text(na.sel).cmp(names.text(nb.sel))),
            // Two roots, or one place.
            _ => Ordering::Equal,
        }
    }
}

/// Hands out [`Keys`] while a file is built: one lookup per selector level.
struct KeyInterner {
    keys: Keys,
    /// `(parent, selector)` for a selector, `(ROOT - variant, payload)`
    /// for a root → its key.
    index: FnvMap<(u32, u32), VarKey>,
}

/// Above every key id: the first word of a root's [`KeyInterner`] slot.
const ROOT: u32 = u32::MAX;

impl Default for KeyInterner {
    fn default() -> Self {
        // Room for a small file's places without growing.
        KeyInterner {
            keys: Keys {
                places: Vec::with_capacity(16),
            },
            index: FnvMap::with_capacity_and_hasher(16, Default::default()),
        }
    }
}

impl KeyInterner {
    fn intern(&mut self, slot: (u32, u32), node: Node) -> VarKey {
        let places = &mut self.keys.places;
        *self.index.entry(slot).or_insert_with(|| {
            places.push(node);
            VarKey(places.len() as u32 - 1)
        })
    }

    fn root(&mut self, root: VarRoot) -> VarKey {
        let slot = match root {
            VarRoot::Global(s) => (ROOT, s.index() as u32),
            VarRoot::Field(s) => (ROOT - 1, s.index() as u32),
            VarRoot::Local(id) => (ROOT - 2, id.0),
        };
        let node = Node {
            root,
            parent: None,
            sel: sym::EMPTY,
            depth: 0,
        };
        self.intern(slot, node)
    }

    fn child(&mut self, parent: VarKey, sel: Sym) -> VarKey {
        let p = self.keys.places[parent.index()];
        let node = Node {
            root: p.root,
            parent: Some(parent),
            sel,
            depth: p.depth + 1,
        };
        self.intern((parent.0, sel.index() as u32), node)
    }
}

/// What a call expression resolves to, when it stays inside the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CallTarget {
    /// A package-level function declared in this file.
    Named(Sym),
    /// A method call through the enclosing method's receiver: the callee
    /// is the method `name` on the receiver type `recv`.
    Method {
        /// Receiver type name.
        recv: Sym,
        /// Method name.
        name: Sym,
    },
    /// A call through a function-typed parameter of the enclosing
    /// function, identified by parameter index.
    Param(usize),
}

/// One analysis-relevant fact inside a block.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// `x.Lock()` / `x.RLock()`.
    Acquire {
        /// The lock's identity.
        lock: VarKey,
        /// Exclusive or shared.
        mode: LockMode,
        /// Call position.
        pos: Pos,
    },
    /// `x.Unlock()` / `x.RUnlock()` (not deferred — deferred releases
    /// never emit, keeping the lock held to function exit).
    Release {
        /// The lock's identity.
        lock: VarKey,
        /// Exclusive or shared.
        mode: LockMode,
        /// Call position.
        pos: Pos,
    },
    /// A read or write of a trackable variable.
    Access {
        /// The variable.
        var: VarKey,
        /// The identifier the place is spelled from: with `var`'s path,
        /// the source spelling ([`Keys::spelling`]), for messages.
        spelled: Sym,
        /// Write (or read-modify-write) vs read.
        write: bool,
        /// Performed through `sync/atomic`.
        atomic: bool,
        /// Declaration-initializer write (`x := v`, `var x = v`): excluded
        /// from race evidence, Eraser-style.
        init: bool,
        /// When this read occurs in an `if` condition, the branch tag of
        /// that `if` (for double-checked-locking detection).
        cond_of: Option<u32>,
        /// The place was reached through an index expression (`m[k]`) —
        /// a container element access rather than the binding itself.
        indexed: bool,
        /// Source position.
        pos: Pos,
    },
    /// A call that resolves within the file: raw material for the
    /// interprocedural layer (`callgraph`/`summary`). The lockset pass
    /// ignores these.
    Call {
        /// The resolved callee.
        target: CallTarget,
        /// Launched with `go` — the callee runs on a fresh goroutine
        /// that inherits none of the caller's locks.
        spawned: bool,
        /// The call site sits inside a loop of the current context.
        in_loop: bool,
        /// Its arguments: an index into [`FuncCfg::calls`].
        args: u32,
        /// Call position.
        pos: Pos,
    },
}

/// The arguments of one [`Event::Call`] that the interprocedural rules
/// read.
#[derive(Debug, Default)]
pub struct CallArgs {
    /// Function-literal arguments: `(argument index, literal position)` —
    /// the position keys `Resolution::captures_at`.
    pub closures: Vec<(usize, Pos)>,
    /// Trackable places passed as arguments: `(argument index, key,
    /// identifier spelled from)`.
    pub vars: Vec<(usize, VarKey, Sym)>,
}

/// One basic block.
#[derive(Debug, Default)]
pub struct BasicBlock {
    /// Where its events sit in [`FuncCfg::events`] ([`FuncCfg::events_of`]).
    pub events: Range<u32>,
    /// Where its successors (same context) sit in [`FuncCfg::succs`]
    /// ([`FuncCfg::succs_of`]).
    pub succs: Range<u32>,
    /// Contexts spawned from this block (`go` statements).
    pub spawns: Vec<u32>,
    /// The context this block belongs to.
    pub ctx: u32,
    /// Branch tag of the innermost enclosing `if` then/else region; the
    /// outer ones are in [`FuncCfg::branch_parent`].
    pub branch: Option<u32>,
}

/// One execution context: the function body (id 0) or a spawned goroutine.
#[derive(Debug)]
pub struct Context {
    /// Context id (index into [`FuncCfg::contexts`]).
    pub id: u32,
    /// Entry block of the context.
    pub entry: BlockId,
    /// Spawning context, `None` for the function body.
    pub parent: Option<u32>,
    /// The `go` statement position, when spawned.
    pub spawn_pos: Option<Pos>,
    /// Spawned inside a loop — concurrent with other instances of itself.
    pub in_loop: bool,
}

/// The CFG of one function declaration.
#[derive(Debug)]
pub struct FuncCfg {
    /// Function name.
    pub func: Sym,
    /// Receiver type name for methods (pointer stripped; [`sym::EMPTY`]
    /// when the receiver's type is not a name).
    pub recv_type: Option<Sym>,
    /// All blocks, across all contexts.
    pub blocks: Vec<BasicBlock>,
    /// Every block's events in execution order, block after block.
    pub events: Vec<Event>,
    /// Every block's successors, block after block.
    pub succs: Vec<BlockId>,
    /// The arguments of every [`Event::Call`], in emission order.
    pub calls: Vec<CallArgs>,
    /// All contexts; index 0 is the function body.
    pub contexts: Vec<Context>,
    /// Parameter symbols in signature order (`None` for unnamed or
    /// unresolved parameters), so effects on a parameter can be named by
    /// index at every call site.
    pub params: Vec<Option<SymbolId>>,
    /// Per branch tag, the tag of the `if` region enclosing that `if` in
    /// the same context.
    pub branch_parent: Vec<Option<u32>>,
}

impl FuncCfg {
    /// The parameter index of `sym`, if it is one of this function's.
    #[must_use]
    pub fn param_index(&self, sym: SymbolId) -> Option<usize> {
        self.params.iter().position(|p| *p == Some(sym))
    }

    /// The events of `block`, in execution order.
    #[must_use]
    pub fn events_of(&self, block: BlockId) -> &[Event] {
        let r = &self.blocks[block.0].events;
        &self.events[r.start as usize..r.end as usize]
    }

    /// The successors of `block`.
    #[must_use]
    pub fn succs_of(&self, block: BlockId) -> &[BlockId] {
        let r = &self.blocks[block.0].succs;
        &self.succs[r.start as usize..r.end as usize]
    }

    /// Branch tags of every `if` then/else region enclosing `block`,
    /// innermost first.
    pub fn branch_tags(&self, block: BlockId) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(self.blocks[block.0].branch, |&t| {
            self.branch_parent[t as usize]
        })
    }
}

/// The CFGs of one file and the one key table their events share.
#[derive(Debug)]
pub struct FileCfg {
    /// One CFG per function with a body, in declaration order.
    pub funcs: Vec<FuncCfg>,
    /// Every place the events name, ids in text order.
    pub keys: Keys,
}

/// Builds a CFG for every function in `file` that has a body, then ranks
/// the file's keys.
#[must_use]
pub fn build_file(file: &File, res: &Resolution) -> FileCfg {
    let mut b = Builder::new(res, &file.names);
    let mut funcs: Vec<FuncCfg> = Vec::with_capacity(file.decls.len());
    funcs.extend(file.decls.iter().filter_map(|d| match d {
        Decl::Func(f) => b.func(f),
        _ => None,
    }));
    let mut keys = b.keys.keys;
    let new_id = keys.rank(&file.names);
    let renumber = |k: &mut VarKey| *k = new_id[k.index()];
    for f in &mut funcs {
        for e in &mut f.events {
            match e {
                Event::Acquire { lock, .. } | Event::Release { lock, .. } => renumber(lock),
                Event::Access { var, .. } => renumber(var),
                Event::Call { .. } => {}
            }
        }
        for (_, k, _) in f.calls.iter_mut().flat_map(|c| &mut c.vars) {
            renumber(k);
        }
    }
    FileCfg { funcs, keys }
}

/// `tagged`, each item with its block, laid out block after block — each
/// block's own order kept — into `out`; block `b`'s run is
/// `starts[b]..starts[b + 1]`.
fn by_block<T: Copy>(tagged: &[(u32, T)], blocks: usize, starts: &mut Vec<u32>, out: &mut Vec<T>) {
    starts.clear();
    starts.resize(blocks + 1, 0);
    for &(b, _) in tagged {
        starts[b as usize + 1] += 1;
    }
    for b in 0..blocks {
        starts[b + 1] += starts[b];
    }
    out.clear();
    let Some(&(_, any)) = tagged.first() else {
        return;
    };
    out.resize(tagged.len(), any);
    // Each block's start serves as its cursor, then moves back.
    for &(b, item) in tagged {
        out[starts[b as usize] as usize] = item;
        starts[b as usize] += 1;
    }
    starts.copy_within(0..blocks, 1);
    starts[0] = 0;
}

fn type_root_name(ty: &Type) -> Sym {
    match ty {
        Type::Pointer(inner) => type_root_name(inner),
        Type::Name(n) => *n,
        _ => sym::EMPTY,
    }
}

/// A resolved place expression.
struct Place {
    key: VarKey,
    /// The identifier the expression starts from.
    spelled: Sym,
    pos: Pos,
    indexed: bool,
}

struct LoopFrame {
    head: BlockId,
    after: BlockId,
}

/// Builds the CFGs of one file, one function at a time, reusing its
/// buffers from one function to the next.
struct Builder<'a> {
    res: &'a Resolution,
    names: &'a Names,
    keys: KeyInterner,
    recv_type: Option<Sym>,
    /// Becomes [`FuncCfg::params`].
    params: Vec<Option<SymbolId>>,
    blocks: Vec<BasicBlock>,
    /// Every event with its block, in emission order.
    events: Vec<(u32, Event)>,
    /// Every edge with its source block, in link order.
    edges: Vec<(u32, BlockId)>,
    /// Becomes [`FuncCfg::calls`].
    calls: Vec<CallArgs>,
    contexts: Vec<Context>,
    current: BlockId,
    ctx: u32,
    loop_stack: Vec<LoopFrame>,
    loop_depth: u32,
    branch_stack: Vec<u32>,
    /// Becomes [`FuncCfg::branch_parent`]; its length is the next tag.
    branch_parent: Vec<Option<u32>>,
    /// [`by_block`]'s run starts, and the edge targets it lays out.
    starts: Vec<u32>,
    targets: Vec<BlockId>,
}

impl<'a> Builder<'a> {
    fn new(res: &'a Resolution, names: &'a Names) -> Self {
        // The scratch buffers start with room for a typical function.
        Builder {
            res,
            names,
            keys: KeyInterner::default(),
            recv_type: None,
            params: Vec::new(),
            blocks: Vec::with_capacity(32),
            events: Vec::with_capacity(64),
            edges: Vec::with_capacity(32),
            calls: Vec::new(),
            contexts: Vec::new(),
            current: BlockId(0),
            ctx: 0,
            loop_stack: Vec::new(),
            loop_depth: 0,
            branch_stack: Vec::new(),
            branch_parent: Vec::new(),
            starts: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Builds the CFG for `f` (returns `None` for bodyless declarations).
    fn func(&mut self, f: &FuncDecl) -> Option<FuncCfg> {
        let body = f.body.as_ref()?;
        self.recv_type = f.receiver.as_ref().map(|r| type_root_name(&r.ty));
        self.params = f
            .sig
            .params
            .iter()
            .map(|p| match self.res.binding(f.pos, p.name) {
                Some(Binding::New(id)) => Some(id),
                _ => None,
            })
            .collect();
        self.blocks.clear();
        self.blocks.push(BasicBlock::default());
        self.contexts.clear();
        self.contexts.push(Context {
            id: 0,
            entry: BlockId(0),
            parent: None,
            spawn_pos: None,
            in_loop: false,
        });
        self.events.clear();
        self.edges.clear();
        self.branch_parent.clear();
        (self.current, self.ctx, self.loop_depth) = (BlockId(0), 0, 0);
        self.stmts(&body.stmts);

        // Lay the events and edges out block after block.
        let mut blocks: Vec<BasicBlock> = self.blocks.drain(..).collect();
        let mut events = Vec::new();
        by_block(&self.events, blocks.len(), &mut self.starts, &mut events);
        for (b, block) in blocks.iter_mut().enumerate() {
            block.events = self.starts[b]..self.starts[b + 1];
        }
        by_block(
            &self.edges,
            blocks.len(),
            &mut self.starts,
            &mut self.targets,
        );
        let mut succs: Vec<BlockId> = Vec::with_capacity(self.targets.len());
        for (b, block) in blocks.iter_mut().enumerate() {
            let start = succs.len();
            let run = &self.targets[self.starts[b] as usize..self.starts[b + 1] as usize];
            for &to in run {
                if !succs[start..].contains(&to) {
                    succs.push(to);
                }
            }
            block.succs = start as u32..succs.len() as u32;
        }
        Some(FuncCfg {
            func: f.name,
            recv_type: self.recv_type,
            blocks,
            events,
            succs,
            calls: std::mem::take(&mut self.calls),
            contexts: self.contexts.drain(..).collect(),
            params: std::mem::take(&mut self.params),
            branch_parent: self.branch_parent.drain(..).collect(),
        })
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len());
        self.blocks.push(BasicBlock {
            ctx: self.ctx,
            branch: self.branch_stack.last().copied(),
            ..BasicBlock::default()
        });
        id
    }

    fn link(&mut self, from: BlockId, to: BlockId) {
        self.edges.push((from.0 as u32, to));
    }

    fn emit(&mut self, e: Event) {
        self.events.push((self.current.0 as u32, e));
    }

    /// Resolves `e` as a trackable place (identifier / selector chain /
    /// index expression rooted in a local, global, or receiver).
    fn place(&mut self, e: &Expr) -> Option<Place> {
        match e {
            Expr::Ident(pos, name) => {
                let symbol = self.res.symbol_at(*pos)?;
                let root = match symbol.kind {
                    SymbolKind::GlobalVar => VarRoot::Global(*name),
                    // An unresolved name in single-file analysis is almost
                    // always a package-level symbol from a sibling file —
                    // treat it as a global (builtin literals excepted).
                    SymbolKind::Universe
                        if !matches!(*name, sym::TRUE | sym::FALSE | sym::NIL | sym::IOTA) =>
                    {
                        VarRoot::Global(*name)
                    }
                    k if k.capturable() => VarRoot::Local(symbol.id),
                    _ => return None,
                };
                Some(Place {
                    key: self.keys.root(root),
                    spelled: *name,
                    pos: *pos,
                    indexed: false,
                })
            }
            Expr::Selector(base, sel) => {
                let b = self.place(base)?;
                // A selector directly on the method receiver keys by the
                // receiver TYPE so all methods of the type agree.
                let parent = match (self.keys.keys.root(b.key), self.recv_type) {
                    (VarRoot::Local(id), Some(ty))
                        if self.keys.keys.places[b.key.index()].parent.is_none()
                            && self.res.symbol(id).kind == SymbolKind::Receiver =>
                    {
                        self.keys.root(VarRoot::Field(ty))
                    }
                    _ => b.key,
                };
                Some(Place {
                    key: self.keys.child(parent, *sel),
                    ..b
                })
            }
            // `m[k]` accesses the container `m`.
            Expr::Index(base, _) => {
                let mut p = self.place(base)?;
                p.indexed = true;
                Some(p)
            }
            Expr::Paren(inner) => self.place(inner),
            // `*p` accesses what `p` points at; approximate by `p` itself.
            Expr::Unary {
                op: UnaryOp::Deref,
                expr,
            } => self.place(expr),
            _ => None,
        }
    }

    fn access(&mut self, p: Place, write: bool, atomic: bool, cond_of: Option<u32>) {
        self.emit(Event::Access {
            var: p.key,
            spelled: p.spelled,
            write,
            atomic,
            init: false,
            cond_of,
            indexed: p.indexed,
            pos: p.pos,
        });
    }

    fn init_write(&mut self, id: SymbolId, name: Sym, pos: Pos) {
        let var = self.keys.root(VarRoot::Local(id));
        self.emit(Event::Access {
            var,
            spelled: name,
            write: true,
            atomic: false,
            init: true,
            cond_of: None,
            indexed: false,
            pos,
        });
    }

    /// Resolves a callee expression to an in-file call target: a declared
    /// package-level function, a method on the enclosing receiver type, or
    /// a function-typed parameter of the enclosing function.
    fn resolve_call_target(&self, callee: &Expr) -> Option<(CallTarget, Pos)> {
        match callee {
            Expr::Ident(pos, name) => {
                let sym = self.res.symbol_at(*pos)?;
                match sym.kind {
                    SymbolKind::Func => Some((CallTarget::Named(*name), *pos)),
                    SymbolKind::Param => {
                        let idx = self.params.iter().position(|p| *p == Some(sym.id))?;
                        Some((CallTarget::Param(idx), *pos))
                    }
                    _ => None,
                }
            }
            Expr::Selector(base, method) => {
                let recv = self.recv_type?;
                if let Expr::Ident(pos, _) = base.as_ref() {
                    let sym = self.res.symbol_at(*pos)?;
                    if sym.kind == SymbolKind::Receiver {
                        return Some((
                            CallTarget::Method {
                                recv,
                                name: *method,
                            },
                            *pos,
                        ));
                    }
                }
                None
            }
            Expr::Paren(inner) => self.resolve_call_target(inner),
            _ => None,
        }
    }

    /// Argument facts for a [`Event::Call`]: which arguments are function
    /// literals and which are trackable places.
    fn call_args(&mut self, args: &[Expr]) -> CallArgs {
        let mut out = CallArgs::default();
        for (i, a) in args.iter().enumerate() {
            if let Expr::FuncLit { pos, .. } = a {
                out.closures.push((i, *pos));
            } else if let Some(p) = self.place(a) {
                out.vars.push((i, p.key, p.spelled));
            }
        }
        out
    }

    /// Emits the [`Event::Call`] for a resolvable callee, if any.
    fn call_event(&mut self, callee: &Expr, args: &[Expr], spawned: bool, go_pos: Option<Pos>) {
        if let Some((target, pos)) = self.resolve_call_target(callee) {
            let call_args = self.call_args(args);
            self.calls.push(call_args);
            self.emit(Event::Call {
                target,
                spawned,
                in_loop: self.loop_depth > 0,
                args: self.calls.len() as u32 - 1,
                pos: go_pos.unwrap_or(pos),
            });
        }
    }

    /// Emits read accesses for every trackable place in `e`, handling lock
    /// and atomic calls specially.
    fn reads(&mut self, e: &Expr, cond_of: Option<u32>) {
        if let Some(p) = self.place(e) {
            self.access(p, false, false, cond_of);
            // Still visit index sub-expressions: `m[k]` reads `k` too.
            self.read_index_parts(e, cond_of);
            return;
        }
        match e {
            Expr::Call { func, args, .. } => self.call(func, args, cond_of),
            Expr::Unary { expr, .. } => self.reads(expr, cond_of),
            Expr::Binary { lhs, rhs, .. } => {
                self.reads(lhs, cond_of);
                self.reads(rhs, cond_of);
            }
            Expr::Paren(inner) => self.reads(inner, cond_of),
            Expr::Index(b, i) => {
                self.reads(b, cond_of);
                self.reads(i, cond_of);
            }
            Expr::SliceExpr { expr, low, high } => {
                self.reads(expr, cond_of);
                if let Some(l) = low {
                    self.reads(l, cond_of);
                }
                if let Some(h) = high {
                    self.reads(h, cond_of);
                }
            }
            Expr::CompositeLit { elems, .. } => {
                for (k, v) in elems {
                    // A bare-identifier key is a struct field name, not a
                    // variable read; anything else (map keys) is evaluated.
                    if let Some(k) = k {
                        if k.as_ident().is_none() {
                            self.reads(k, cond_of);
                        }
                    }
                    self.reads(v, cond_of);
                }
            }
            Expr::Selector(base, _) => self.reads(base, cond_of),
            // Closures not launched by `go` run at an unknown time; their
            // bodies are outside this CFG (conservative: no events).
            Expr::FuncLit { .. } => {}
            _ => {}
        }
    }

    fn read_index_parts(&mut self, e: &Expr, cond_of: Option<u32>) {
        match e {
            Expr::Index(b, i) => {
                self.read_index_parts(b, cond_of);
                self.reads(i, cond_of);
            }
            Expr::Selector(b, _) | Expr::Paren(b) => self.read_index_parts(b, cond_of),
            Expr::Unary { expr, .. } => self.read_index_parts(expr, cond_of),
            _ => {}
        }
    }

    /// Handles a call expression: lock operations, `sync/atomic`, inline
    /// `func(){...}()` literals, and plain calls.
    fn call(&mut self, callee: &Expr, args: &[Expr], cond_of: Option<u32>) {
        if let Expr::Selector(base, method) = callee {
            let lock_op = match *method {
                sym::LOCK => Some((LockMode::Write, true)),
                sym::UNLOCK => Some((LockMode::Write, false)),
                sym::RLOCK => Some((LockMode::Read, true)),
                sym::RUNLOCK => Some((LockMode::Read, false)),
                _ => None,
            };
            if let Some((mode, acquire)) = lock_op {
                if let Some(p) = self.place(base) {
                    let ev = if acquire {
                        Event::Acquire {
                            lock: p.key,
                            mode,
                            pos: p.pos,
                        }
                    } else {
                        Event::Release {
                            lock: p.key,
                            mode,
                            pos: p.pos,
                        }
                    };
                    self.emit(ev);
                    return;
                }
            }
            // `atomic.AddInt64(&v, 1)` family: the first argument is the
            // atomically-accessed place; `Load*` reads, everything else
            // (Add/Store/Swap/CompareAndSwap) writes.
            if base.as_ident() == Some(sym::ATOMIC) {
                let write = !self.names.text(*method).starts_with("Load");
                if let Some(Expr::Unary {
                    op: UnaryOp::Addr,
                    expr,
                }) = args.first()
                {
                    if let Some(p) = self.place(expr) {
                        self.access(p, write, true, cond_of);
                    }
                }
                for a in args.iter().skip(1) {
                    self.reads(a, cond_of);
                }
                return;
            }
            // Ordinary method call: the receiver chain itself is not a data
            // access we model (`wg.Add(1)` mutates through a method, which
            // the dedicated lints handle); arguments are evaluated here.
            for a in args {
                self.reads(a, cond_of);
            }
            self.call_event(callee, args, false, None);
            return;
        }
        // Immediately-invoked closure: runs here, on this thread.
        if let Expr::FuncLit { body, .. } = callee {
            for a in args {
                self.reads(a, cond_of);
            }
            self.stmts(&body.stmts);
            return;
        }
        for a in args {
            self.reads(a, cond_of);
        }
        self.call_event(callee, args, false, None);
    }

    fn write_target(&mut self, e: &Expr) {
        if let Some(p) = self.place(e) {
            self.access(p, true, false, None);
        }
        // Index parts of the target are still reads (`m[k] = v` reads k).
        self.read_index_parts(e, None);
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    #[allow(clippy::too_many_lines)]
    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl(v) => {
                for e in &v.values {
                    self.reads(e, None);
                }
                if !v.values.is_empty() {
                    for &name in &v.names {
                        if let Some(Binding::New(id)) = self.res.binding(v.pos, name) {
                            self.init_write(id, name, v.pos);
                        }
                    }
                }
            }
            Stmt::Define { pos, names, values } => {
                for e in values {
                    self.reads(e, None);
                }
                for &name in names {
                    if name == sym::BLANK {
                        continue;
                    }
                    // A define that reuses an existing same-scope symbol is
                    // a real write; a fresh declaration is an init write.
                    match self.res.binding(*pos, name) {
                        Some(Binding::New(id)) => self.init_write(id, name, *pos),
                        Some(Binding::Existing(id)) => {
                            let var = self.keys.root(VarRoot::Local(id));
                            self.emit(Event::Access {
                                var,
                                spelled: name,
                                write: true,
                                atomic: false,
                                init: false,
                                cond_of: None,
                                indexed: false,
                                pos: *pos,
                            });
                        }
                        None => {}
                    }
                }
            }
            Stmt::Assign { lhs, rhs, op, .. } => {
                for e in rhs {
                    self.reads(e, None);
                }
                for e in lhs {
                    if op.binary().is_some() {
                        // Compound assignment reads the target too.
                        self.reads(e, None);
                    }
                    self.write_target(e);
                }
            }
            Stmt::IncDec { expr, .. } => {
                self.reads(expr, None);
                self.write_target(expr);
            }
            Stmt::Expr(e) => self.reads(e, None),
            Stmt::Send { chan, value, .. } => {
                self.reads(chan, None);
                self.reads(value, None);
            }
            Stmt::Go { pos, call } => {
                if let Expr::Call { func, args, .. } = call {
                    // Arguments evaluate on the spawning thread.
                    for a in args {
                        self.reads(a, None);
                    }
                    if let Expr::FuncLit { body, .. } = func.as_ref() {
                        self.spawn(*pos, body);
                    } else if self.resolve_call_target(func).is_some() {
                        // `go f(x)` with an in-file callee: the spawned call
                        // becomes interprocedural material, positioned at
                        // the `go` keyword (the spawn point for MHP).
                        self.call_event(func, args, true, Some(*pos));
                    } else {
                        // `go f(x)` — the callee body is out of scope for an
                        // intraprocedural pass.
                        self.reads(func, None);
                    }
                } else {
                    self.reads(call, None);
                }
            }
            Stmt::Defer { call, .. } => {
                // `defer x.Unlock()` keeps the lock held to function exit:
                // modeled by NOT emitting a release. Deferred closures run
                // at exit; their bodies are skipped (conservative).
                if let Expr::Call { func, args, .. } = call {
                    let is_unlock = matches!(
                        func.as_ref(),
                        Expr::Selector(_, m) if matches!(*m, sym::UNLOCK | sym::RUNLOCK)
                    );
                    if !is_unlock && !matches!(func.as_ref(), Expr::FuncLit { .. }) {
                        for a in args {
                            self.reads(a, None);
                        }
                    }
                }
            }
            Stmt::Return { values, .. } => {
                for e in values {
                    self.reads(e, None);
                }
                // Control leaves the function; the rest of the block is
                // unreachable — continue in a fresh, disconnected block.
                self.current = self.new_block();
            }
            Stmt::If {
                init,
                cond,
                then,
                els,
                ..
            } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                let tag = self.branch_parent.len() as u32;
                self.branch_parent.push(self.branch_stack.last().copied());
                self.reads(cond, Some(tag));
                let head = self.current;
                let join = self.new_block();

                self.branch_stack.push(tag);
                let then_entry = self.new_block();
                self.link(head, then_entry);
                self.current = then_entry;
                self.stmts(&then.stmts);
                let then_exit = self.current;
                self.link(then_exit, join);
                self.branch_stack.pop();

                if let Some(e) = els {
                    self.branch_stack.push(tag);
                    let else_entry = self.new_block();
                    self.link(head, else_entry);
                    self.current = else_entry;
                    self.stmt(e);
                    let else_exit = self.current;
                    self.link(else_exit, join);
                    self.branch_stack.pop();
                } else {
                    self.link(head, join);
                }
                self.current = join;
            }
            Stmt::Block(b) => self.stmts(&b.stmts),
            Stmt::For {
                init,
                cond,
                post,
                range,
                body,
                ..
            } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                let head = self.new_block();
                self.link(self.current, head);
                self.current = head;
                if let Some(c) = cond {
                    self.reads(c, None);
                }
                if let Some(r) = range {
                    self.reads(&r.expr, None);
                }
                let after = self.new_block();
                self.link(head, after);

                let body_entry = self.new_block();
                self.link(head, body_entry);
                self.current = body_entry;
                self.loop_stack.push(LoopFrame { head, after });
                self.loop_depth += 1;
                self.stmts(&body.stmts);
                if let Some(p) = post {
                    self.stmt(p);
                }
                self.loop_depth -= 1;
                self.loop_stack.pop();
                let body_exit = self.current;
                self.link(body_exit, head);
                self.current = after;
            }
            Stmt::Switch { tag, cases, .. } => {
                if let Some(t) = tag {
                    self.reads(t, None);
                }
                let head = self.current;
                let join = self.new_block();
                for c in cases {
                    self.current = head;
                    for e in &c.exprs {
                        self.reads(e, None);
                    }
                    let entry = self.new_block();
                    self.link(head, entry);
                    self.current = entry;
                    self.stmts(&c.body);
                    let exit = self.current;
                    self.link(exit, join);
                }
                // Without a default clause, control may skip every case.
                self.link(head, join);
                self.current = join;
            }
            Stmt::Select { cases, .. } => {
                let head = self.current;
                let join = self.new_block();
                for c in cases {
                    let entry = self.new_block();
                    self.link(head, entry);
                    self.current = entry;
                    if let Some(comm) = &c.comm {
                        self.stmt(comm);
                    }
                    self.stmts(&c.body);
                    let exit = self.current;
                    self.link(exit, join);
                }
                self.current = join;
            }
            Stmt::Branch { kind, .. } => match kind {
                BranchKind::Break => {
                    if let Some(f) = self.loop_stack.last() {
                        let after = f.after;
                        let cur = self.current;
                        self.link(cur, after);
                        self.current = self.new_block();
                    }
                }
                BranchKind::Continue => {
                    if let Some(f) = self.loop_stack.last() {
                        let head = f.head;
                        let cur = self.current;
                        self.link(cur, head);
                        self.current = self.new_block();
                    }
                }
                BranchKind::Fallthrough | BranchKind::Goto => {}
            },
            Stmt::Empty => {}
        }
    }

    /// Builds a spawned goroutine body as a new context.
    fn spawn(&mut self, pos: Pos, body: &Block) {
        let ctx_id = u32::try_from(self.contexts.len()).unwrap_or(u32::MAX);
        let saved_ctx = self.ctx;
        let saved_current = self.current;
        let saved_loops = std::mem::take(&mut self.loop_stack);
        let saved_branches = std::mem::take(&mut self.branch_stack);
        let saved_depth = self.loop_depth;

        self.ctx = ctx_id;
        self.loop_depth = 0;
        let entry = self.new_block();
        self.contexts.push(Context {
            id: ctx_id,
            entry,
            parent: Some(saved_ctx),
            spawn_pos: Some(pos),
            in_loop: saved_depth > 0,
        });
        self.blocks[saved_current.0].spawns.push(ctx_id);
        self.current = entry;
        self.stmts(&body.stmts);

        self.ctx = saved_ctx;
        self.current = saved_current;
        self.loop_stack = saved_loops;
        self.branch_stack = saved_branches;
        self.loop_depth = saved_depth;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use crate::resolve::resolve_file;

    /// The first function's CFG, the file's keys and its names.
    fn file_of(src: &str) -> (FuncCfg, Keys, Names) {
        let file = parse_file(src).expect("parses");
        let res = resolve_file(&file);
        let FileCfg { funcs, keys } = build_file(&file, &res);
        let first = funcs.into_iter().next().expect("a function with a body");
        (first, keys, file.names)
    }

    fn cfg_of(src: &str) -> FuncCfg {
        file_of(src).0
    }

    fn all_events(cfg: &FuncCfg) -> Vec<&Event> {
        cfg.events.iter().collect()
    }

    #[test]
    fn spawn_creates_context_with_edge() {
        let cfg = cfg_of(
            r"
package p
func f(jobs []int) {
    for _, j := range jobs {
        go func() { use(j) }()
    }
}
",
        );
        assert_eq!(cfg.contexts.len(), 2);
        assert!(cfg.contexts[1].in_loop, "goroutine spawned inside a loop");
        assert_eq!(cfg.contexts[1].parent, Some(0));
        assert!(cfg.blocks.iter().any(|b| b.spawns.contains(&1)));
    }

    #[test]
    fn lock_events_and_defer_unlock() {
        let (cfg, keys, names) = file_of(
            r"
package p
func (g *Gate) update() {
    g.mu.RLock()
    defer g.mu.RUnlock()
    g.ready = true
}
",
        );
        let evs = all_events(&cfg);
        let acquires = evs
            .iter()
            .filter(|e| matches!(e, Event::Acquire { mode: LockMode::Read, .. }))
            .count();
        let releases = evs.iter().filter(|e| matches!(e, Event::Release { .. })).count();
        assert_eq!(acquires, 1);
        assert_eq!(releases, 0, "deferred release must not emit");
        // The write keys by receiver type.
        assert!(evs.iter().any(|e| matches!(
            e,
            Event::Access { var, write: true, .. }
                if keys.text(*var, &names) == "Gate.ready"
                    && matches!(keys.root(*var), VarRoot::Field(_))
        )));
    }

    #[test]
    fn atomic_calls_mark_accesses() {
        let cfg = cfg_of(
            r"
package p
var ops int
func f() {
    atomic.AddInt64(&ops, 1)
    use(atomic.LoadInt64(&ops))
}
",
        );
        let evs = all_events(&cfg);
        let atomics: Vec<bool> = evs
            .iter()
            .filter_map(|e| match e {
                Event::Access { atomic: true, write, .. } => Some(*write),
                _ => None,
            })
            .collect();
        assert_eq!(atomics, vec![true, false], "Add writes, Load reads");
    }

    #[test]
    fn if_condition_reads_are_tagged() {
        let cfg = cfg_of(
            r"
package p
var instance int
func f() {
    if instance == 0 {
        instance = 1
    }
}
",
        );
        let evs = all_events(&cfg);
        let tag = evs
            .iter()
            .find_map(|e| match e {
                Event::Access { write: false, cond_of: Some(t), .. } => Some(*t),
                _ => None,
            })
            .expect("condition read tagged");
        // The guarded write lives in a block tagged with the same branch.
        let write_in_branch = (0..cfg.blocks.len()).map(BlockId).any(|b| {
            cfg.branch_tags(b).any(|t| t == tag)
                && cfg
                    .events_of(b)
                    .iter()
                    .any(|e| matches!(e, Event::Access { write: true, .. }))
        });
        assert!(write_in_branch);
    }

    #[test]
    fn loops_have_back_edges() {
        let cfg = cfg_of(
            r"
package p
func f(n int) {
    for i := 0; i < n; i++ {
        work(i)
    }
}
",
        );
        let back_edge =
            (0..cfg.blocks.len()).any(|i| cfg.succs_of(BlockId(i)).iter().any(|s| s.0 <= i));
        assert!(back_edge);
    }

    #[test]
    fn shadowed_locals_key_differently() {
        let (cfg, keys, _) = file_of(
            r"
package p
var version int
func f() {
    version := 2
    use(version)
}
",
        );
        for e in all_events(&cfg) {
            if let Event::Access { var, .. } = e {
                assert!(
                    matches!(keys.root(*var), VarRoot::Local(_)),
                    "shadowed name resolved to {:?}",
                    keys.root(*var)
                );
            }
        }
    }

    #[test]
    fn explicit_runlock_releases() {
        let (cfg, keys, names) = file_of(
            r"
package p
func (s *Store) bump() {
    s.mu.RLock()
    v := s.count
    s.mu.RUnlock()
    s.count = v + 1
}
",
        );
        let evs = all_events(&cfg);
        assert_eq!(
            evs.iter().filter(|e| matches!(e, Event::Release { .. })).count(),
            1
        );
        // count is read once and written once (v's init write aside).
        let count_accesses = evs
            .iter()
            .filter(|e| {
                matches!(e, Event::Access { var, .. } if keys.path_text(*var, &names) == ".count")
            })
            .count();
        assert_eq!(count_accesses, 2);
    }

    #[test]
    fn key_ids_follow_text_not_first_occurrence() {
        let (cfg, keys, names) = file_of(
            r"
package p
var zeta int
var alpha int
func (s *S) f() {
    zeta = 1
    s.b.c = 1
    s.ab = 2
    s.b = 3
    alpha = 4
    x := s
    x.q = 5
}
",
        );
        let texts: Vec<String> = keys.iter().map(|k| keys.text(k, &names)).collect();
        assert_eq!(
            texts,
            ["alpha", "zeta", "S", "S.ab", "S.b", "S.b.c", "", "", "q"],
            "globals by name, then receiver fields by path, then locals by symbol"
        );
        // Every event's key was renumbered with the table.
        let spelled: Vec<String> = cfg
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Access { var, spelled, .. } => Some(keys.spelling(*spelled, *var, &names)),
                _ => None,
            })
            .collect();
        assert_eq!(
            spelled,
            ["zeta", "s.b.c", "s.ab", "s.b", "alpha", "s", "x", "x.q"]
        );
    }
}
