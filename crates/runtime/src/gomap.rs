//! [`GoMap`] — Go's built-in, thread-unsafe hash table.
//!
//! Observation 5: Go developers misread `m[k]` array-style syntax as
//! touching only the entry for `k`, but a map is a sparse structure — every
//! insertion or deletion mutates shared internals (buckets, counts,
//! possibly a rehash). The model therefore gives the map one *structure*
//! address written by every mutation and read by every lookup, plus one
//! address per key slot; concurrent writes under distinct keys still
//! conflict on the structure word, exactly as Go's `-race` (and the Go
//! runtime's own `concurrent map writes` throw) reports.

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::Location;
use std::sync::{Arc, Mutex};

use grs_obs::hash::FnvMap;

use crate::ctx::Ctx;
use crate::event::AccessKind;
use crate::ids::Addr;

/// A Go map from `K` to `V`.
///
/// Cloning the handle aliases the same map (Go maps are reference types).
///
/// # Example
///
/// ```
/// use grs_runtime::{GoMap, NullMonitor, Program, RunConfig, Runtime};
///
/// let p = Program::new("map", |ctx| {
///     let m: GoMap<String, i64> = GoMap::make(ctx, "errMap");
///     m.insert(ctx, "a".into(), 1);
///     assert_eq!(m.get(ctx, &"a".into()), Some(1));
///     assert_eq!(m.get(ctx, &"b".into()), None); // zero value, no error
///     assert_eq!(m.len(ctx), 1);
/// });
/// let (outcome, _) = Runtime::new(RunConfig::with_seed(4)).run(&p, NullMonitor);
/// assert!(outcome.is_clean());
/// ```
pub struct GoMap<K, V> {
    name: Arc<str>,
    /// `{name}[structure]`: the object the structure word is reported as.
    struct_object: Arc<str>,
    addr_struct: Addr,
    inner: Arc<Mutex<MapInner<K, V>>>,
}

struct MapInner<K, V> {
    /// Keyed by a fixed hasher, as the kernel's tables are, so the order
    /// [`GoMap::iterate`] sorts from — and so what its sort costs — is the
    /// same in every process.
    entries: FnvMap<K, (Addr, V)>,
}

impl<K, V> Clone for GoMap<K, V> {
    fn clone(&self) -> Self {
        GoMap {
            name: self.name.clone(),
            struct_object: self.struct_object.clone(),
            addr_struct: self.addr_struct,
            inner: self.inner.clone(),
        }
    }
}

impl<K, V> std::fmt::Debug for GoMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoMap").field("name", &self.name).finish()
    }
}

impl<K, V> GoMap<K, V>
where
    K: Eq + Hash + Clone + Send + std::fmt::Debug + 'static,
    V: Clone + Send + 'static,
{
    /// Go's `make(map[K]V)`.
    #[must_use]
    pub fn make(ctx: &Ctx, name: &str) -> Self {
        GoMap {
            name: ctx.kernel().depot().text(name),
            struct_object: ctx
                .kernel()
                .depot()
                .text_fmt(format_args!("{name}[structure]")),
            addr_struct: Addr(ctx.kernel().alloc_id()),
            inner: Arc::new(Mutex::new(MapInner {
                entries: FnvMap::default(),
            })),
        }
    }

    /// The debug name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    fn touch_struct(&self, ctx: &Ctx, kind: AccessKind, loc: &'static Location<'static>) {
        ctx.access(self.addr_struct, || &*self.struct_object, kind, loc);
    }

    /// The object `key`'s slot is reported as.
    fn slot_object(&self, key: &K) -> String {
        format!("{}[{key:?}]", self.name)
    }

    /// Accesses `key`'s slot at `addr`.
    fn touch_slot(
        &self,
        ctx: &Ctx,
        addr: Addr,
        key: &K,
        kind: AccessKind,
        loc: &'static Location<'static>,
    ) {
        ctx.access(addr, || self.slot_object(key), kind, loc);
    }

    /// `m[k] = v` — writes the structure word and the key slot.
    #[track_caller]
    pub fn insert(&self, ctx: &Ctx, key: K, value: V) {
        let loc = Location::caller();
        self.touch_struct(ctx, AccessKind::Write, loc);
        let slot_addr = {
            let mut m = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(slot) = m.entries.get_mut(&key) {
                slot.1 = value;
                slot.0
            } else {
                let addr = Addr(ctx.kernel().alloc_id());
                m.entries.insert(key.clone(), (addr, value));
                addr
            }
        };
        // Named lazily on every path: another goroutine may have created
        // the slot and been preempted before its own access was emitted.
        self.touch_slot(ctx, slot_addr, &key, AccessKind::Write, loc);
    }

    /// `v, ok := m[k]` — reads the structure word and, when present, the
    /// key slot. Missing keys return `None` (Go returns the zero value
    /// without complaint — the "error tolerance" the paper flags).
    #[track_caller]
    #[must_use]
    pub fn get(&self, ctx: &Ctx, key: &K) -> Option<V> {
        let loc = Location::caller();
        self.touch_struct(ctx, AccessKind::Read, loc);
        let found = {
            let m = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            m.entries.get(key).map(|(a, v)| (*a, v.clone()))
        };
        match found {
            Some((addr, v)) => {
                self.touch_slot(ctx, addr, key, AccessKind::Read, loc);
                Some(v)
            }
            None => None,
        }
    }

    /// `delete(m, k)` — writes the structure word (and the slot if present).
    #[track_caller]
    pub fn delete(&self, ctx: &Ctx, key: &K) {
        let loc = Location::caller();
        self.touch_struct(ctx, AccessKind::Write, loc);
        let removed = {
            let mut m = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            m.entries.remove(key)
        };
        if let Some((addr, _)) = removed {
            self.touch_slot(ctx, addr, key, AccessKind::Write, loc);
        }
    }

    /// `len(m)` — reads the structure word.
    #[track_caller]
    #[must_use]
    pub fn len(&self, ctx: &Ctx) -> usize {
        let loc = Location::caller();
        self.touch_struct(ctx, AccessKind::Read, loc);
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    /// True when the map has no entries.
    #[track_caller]
    #[must_use]
    pub fn is_empty(&self, ctx: &Ctx) -> bool {
        self.len(ctx) == 0
    }

    /// `for k, v := range m` — reads the structure word and every slot.
    /// Iteration order is sorted by the debug representation of the key so
    /// runs stay deterministic (Go randomizes; determinism matters more
    /// here).
    #[track_caller]
    #[must_use]
    pub fn iterate(&self, ctx: &Ctx) -> Vec<(K, V)> {
        let loc = Location::caller();
        self.touch_struct(ctx, AccessKind::Read, loc);
        let mut items: Vec<(K, (Addr, V))> = {
            let m = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            m.entries
                .iter()
                .map(|(k, (a, v))| (k.clone(), (*a, v.clone())))
                .collect()
        };
        items.sort_by_cached_key(|(k, _)| format!("{k:?}"));
        items
            .into_iter()
            .map(|(k, (addr, v))| {
                self.touch_slot(ctx, addr, &k, AccessKind::Read, loc);
                (k, v)
            })
            .collect()
    }

    /// Uninstrumented snapshot for test assertions.
    #[must_use]
    pub fn snapshot(&self) -> HashMap<K, V> {
        let m = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        m.entries
            .iter()
            .map(|(k, (_, v))| (k.clone(), v.clone()))
            .collect()
    }
}
