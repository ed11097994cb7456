//! Go-source renditions of the pattern corpus, one per lint rule.
//!
//! The executable patterns in this crate exercise the *dynamic* detector;
//! these are the same bugs written as Go-lite source, so the *static*
//! engine (`grs-golite`'s `GR001`–`GR018`) can be scored against the
//! dynamic detector on identical material. Each rendition carries the
//! pattern ID of its executable twin — the agreement experiment in
//! `grs::experiments` joins the two corpora on that key.
//!
//! `GR013`–`GR018` are the interprocedural rules: each of those
//! renditions splits its bug across at least two functions, so it is
//! invisible to a single-function analysis and only falls out of the
//! call-graph summaries.
//!
//! This crate deliberately does not depend on the lint engine: a rendition
//! names its rule by stable ID string, and the engine side resolves it.

/// One bug written twice: racy Go and the developers' fix.
#[derive(Debug, Clone, Copy)]
pub struct GoRendition {
    /// ID of the executable [`crate::Pattern`] this is the source form of.
    pub pattern_id: &'static str,
    /// The lint rule (`GR001`…`GR018`) that must fire on `racy` and stay
    /// silent on `fixed`.
    pub rule: &'static str,
    /// Go-lite source containing the race.
    pub racy: &'static str,
    /// Go-lite source with the paper's fix applied.
    pub fixed: &'static str,
}

/// All renditions, one per lint rule, in rule-ID order.
#[must_use]
pub fn renditions() -> Vec<GoRendition> {
    vec![
        GoRendition {
            pattern_id: "loop_index_capture",
            rule: "GR001",
            racy: r#"
package worker

func ProcessAll(jobs []int) {
    for _, job := range jobs {
        go func() {
            process(job)
        }()
    }
}
"#,
            fixed: r#"
package worker

func ProcessAll(jobs []int) {
    for _, job := range jobs {
        job := job
        go func() {
            process(job)
        }()
    }
}
"#,
        },
        GoRendition {
            pattern_id: "err_capture",
            rule: "GR002",
            racy: r#"
package fetch

func Fetch() {
    data, err := load()
    go func() {
        err = send(data)
    }()
    if err != nil {
        logError(err)
    }
}
"#,
            fixed: r#"
package fetch

func Fetch() {
    data, err := load()
    go func() {
        err := send(data)
        logError(err)
    }()
    if err != nil {
        logError(err)
    }
}
"#,
        },
        GoRendition {
            pattern_id: "named_return_capture",
            rule: "GR003",
            racy: r#"
package compute

func Compute() (result int) {
    go func() {
        result = expensive()
    }()
    waitDone()
    return result
}
"#,
            fixed: r#"
package compute

func Compute() (result int) {
    local := 0
    go func() {
        local = expensive()
    }()
    waitDone()
    result = local
    return result
}
"#,
        },
        GoRendition {
            pattern_id: "map_concurrent_write",
            rule: "GR004",
            racy: r#"
package cachepkg

func Warm(keys []string) {
    cache := makeCache()
    for _, k := range keys {
        k := k
        go func() {
            cache[k] = fetch(k)
        }()
    }
}
"#,
            fixed: r#"
package cachepkg

func Warm(keys []string) {
    cache := makeCache()
    for _, k := range keys {
        cache[k] = fetch(k)
    }
}
"#,
        },
        GoRendition {
            pattern_id: "mutex_by_value",
            rule: "GR005",
            racy: r#"
package store

func Push(mu sync.Mutex, v int) {
    mu.Lock()
    enqueue(v)
    mu.Unlock()
}
"#,
            fixed: r#"
package store

func Push(mu *sync.Mutex, v int) {
    mu.Lock()
    enqueue(v)
    mu.Unlock()
}
"#,
        },
        GoRendition {
            pattern_id: "waitgroup_add_inside",
            rule: "GR006",
            racy: r#"
package fanout

func FanOut(jobs []int) {
    var wg sync.WaitGroup
    for _, job := range jobs {
        job := job
        go func() {
            wg.Add(1)
            process(job)
            wg.Done()
        }()
    }
    wg.Wait()
}
"#,
            fixed: r#"
package fanout

func FanOut(jobs []int) {
    var wg sync.WaitGroup
    for _, job := range jobs {
        job := job
        wg.Add(1)
        go func() {
            process(job)
            wg.Done()
        }()
    }
    wg.Wait()
}
"#,
        },
        GoRendition {
            pattern_id: "partial_lock",
            rule: "GR007",
            racy: r#"
package config

var mu sync.Mutex
var version int

func SetConfig(v int) {
    mu.Lock()
    version = v
    mu.Unlock()
}

func GetConfig() int {
    return version
}
"#,
            fixed: r#"
package config

var mu sync.Mutex
var version int

func SetConfig(v int) {
    mu.Lock()
    version = v
    mu.Unlock()
}

func GetConfig() int {
    mu.Lock()
    v := version
    mu.Unlock()
    return v
}
"#,
        },
        GoRendition {
            pattern_id: "inconsistent_lock",
            rule: "GR008",
            racy: r#"
package session

func (s *Store) Add() {
    s.muA.Lock()
    s.count = s.count + 1
    s.muA.Unlock()
}

func (s *Store) Remove() {
    s.muB.Lock()
    s.count = s.count - 1
    s.muB.Unlock()
}
"#,
            fixed: r#"
package session

func (s *Store) Add() {
    s.mu.Lock()
    s.count = s.count + 1
    s.mu.Unlock()
}

func (s *Store) Remove() {
    s.mu.Lock()
    s.count = s.count - 1
    s.mu.Unlock()
}
"#,
        },
        GoRendition {
            pattern_id: "rlock_write",
            rule: "GR009",
            racy: r#"
package health

func (g *Gate) updateGate() {
    g.mu.RLock()
    if g.ready == 0 {
        g.ready = 1
    }
    g.mu.RUnlock()
}

func (g *Gate) Check() int {
    g.mu.RLock()
    r := g.ready
    g.mu.RUnlock()
    return r
}
"#,
            fixed: r#"
package health

func (g *Gate) updateGate() {
    g.mu.Lock()
    if g.ready == 0 {
        g.ready = 1
    }
    g.mu.Unlock()
}

func (g *Gate) Check() int {
    g.mu.RLock()
    r := g.ready
    g.mu.RUnlock()
    return r
}
"#,
        },
        GoRendition {
            pattern_id: "partial_atomic",
            rule: "GR010",
            racy: r#"
package metrics

var hits int64

func Inc() {
    atomic.AddInt64(&hits, 1)
}

func Snapshot() int64 {
    return hits
}
"#,
            fixed: r#"
package metrics

var hits int64

func Inc() {
    atomic.AddInt64(&hits, 1)
}

func Snapshot() int64 {
    return atomic.LoadInt64(&hits)
}
"#,
        },
        GoRendition {
            pattern_id: "double_checked_locking",
            rule: "GR011",
            racy: r#"
package pool

var mu sync.Mutex
var initialized int
var conn int

func Get() int {
    if initialized == 0 {
        mu.Lock()
        initialized = 1
        conn = dial()
        mu.Unlock()
    }
    mu.Lock()
    c := conn
    mu.Unlock()
    return c
}
"#,
            fixed: r#"
package pool

var mu sync.Mutex
var initialized int
var conn int

func Get() int {
    mu.Lock()
    if initialized == 0 {
        initialized = 1
        conn = dial()
    }
    c := conn
    mu.Unlock()
    return c
}
"#,
        },
        GoRendition {
            pattern_id: "statement_order",
            rule: "GR012",
            racy: r#"
package server

func Serve() {
    var srv int
    go func() {
        handle(srv)
    }()
    srv = newServer()
}
"#,
            fixed: r#"
package server

func Serve() {
    var srv int
    srv = newServer()
    go func() {
        handle(srv)
    }()
}
"#,
        },
        GoRendition {
            pattern_id: "helper_hidden_lock",
            rule: "GR013",
            racy: r#"
package counter

var mu sync.Mutex
var count int

func Incr() {
    mu.Lock()
    bump()
    mu.Unlock()
}

func bump() {
    count = count + 1
}

func Read() int {
    return count
}
"#,
            fixed: r#"
package counter

var mu sync.Mutex
var count int

func Incr() {
    mu.Lock()
    bump()
    mu.Unlock()
}

func bump() {
    count = count + 1
}

func Read() int {
    mu.Lock()
    v := count
    mu.Unlock()
    return v
}
"#,
        },
        GoRendition {
            pattern_id: "caller_side_locks",
            rule: "GR014",
            racy: r#"
package tally

var muA sync.Mutex
var muB sync.Mutex
var total int

func AddA(n int) {
    muA.Lock()
    bump(n)
    muA.Unlock()
}

func AddB(n int) {
    muB.Lock()
    bump(n)
    muB.Unlock()
}

func bump(n int) {
    total = total + n
}
"#,
            fixed: r#"
package tally

var mu sync.Mutex
var total int

func AddA(n int) {
    mu.Lock()
    bump(n)
    mu.Unlock()
}

func AddB(n int) {
    mu.Lock()
    bump(n)
    mu.Unlock()
}

func bump(n int) {
    total = total + n
}
"#,
        },
        GoRendition {
            pattern_id: "closure_to_worker",
            rule: "GR015",
            racy: r#"
package workpool

func spawnWorker(fn func()) {
    go fn()
}

func ProcessAll(jobs []int) {
    for _, job := range jobs {
        spawnWorker(func() {
            process(job)
        })
    }
}
"#,
            fixed: r#"
package workpool

func spawnWorker(fn func()) {
    go fn()
}

func ProcessAll(jobs []int) {
    for _, job := range jobs {
        job := job
        spawnWorker(func() {
            process(job)
        })
    }
}
"#,
        },
        GoRendition {
            pattern_id: "lock_dropped_before_call",
            rule: "GR016",
            racy: r#"
package notifier

var mu sync.Mutex
var state int

func Update(v int) {
    mu.Lock()
    state = v
    mu.Unlock()
    notify()
}

func notify() {
    emit(state)
}
"#,
            fixed: r#"
package notifier

var mu sync.Mutex
var state int

func Update(v int) {
    mu.Lock()
    state = v
    notify()
    mu.Unlock()
}

func notify() {
    emit(state)
}
"#,
        },
        GoRendition {
            pattern_id: "spawn_in_callee_map_write",
            rule: "GR017",
            racy: r#"
package warmer

func Warm(keys []string) {
    cache := makeCache()
    fill(cache, keys)
    use(cache)
}

func fill(m map[string]int, keys []string) {
    for _, k := range keys {
        go put(m, k)
    }
}

func put(m map[string]int, k string) {
    m[k] = 1
}
"#,
            fixed: r#"
package warmer

func Warm(keys []string) {
    cache := makeCache()
    fill(cache, keys)
    use(cache)
}

func fill(m map[string]int, keys []string) {
    for _, k := range keys {
        put(m, k)
    }
}

func put(m map[string]int, k string) {
    m[k] = 1
}
"#,
        },
        GoRendition {
            pattern_id: "recursive_accessor",
            rule: "GR018",
            racy: r#"
package summing

var total int

func sum(n int) {
    if n > 0 {
        total = total + n
        sum(n - 1)
    }
}

func Run() {
    go sum(8)
    report(total)
}
"#,
            fixed: r#"
package summing

var total int

func sum(n int) {
    if n > 0 {
        total = total + n
        sum(n - 1)
    }
}

func Run() {
    var wg sync.WaitGroup
    wg.Add(1)
    go func() {
        sum(8)
        wg.Done()
    }()
    wg.Wait()
    report(total)
}
"#,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find;

    #[test]
    fn every_rendition_has_an_executable_twin() {
        for r in renditions() {
            assert!(
                find(r.pattern_id).is_some(),
                "no executable pattern named {:?}",
                r.pattern_id
            );
        }
    }

    #[test]
    fn renditions_cover_all_eighteen_rules_in_order() {
        let rules: Vec<&str> = renditions().iter().map(|r| r.rule).collect();
        let expected: Vec<String> = (1..=18).map(|n| format!("GR{n:03}")).collect();
        assert_eq!(rules, expected);
    }
}
