//! The paper's listings, written as Go source, parsed by Go-lite, and
//! checked against the static lints: each lint fires on its listing and
//! stays quiet on the fixed variant.

use grs_golite::{lint_file, parse_file, scan_file, Rule};

fn rules(src: &str) -> Vec<Rule> {
    let file = parse_file(src).unwrap_or_else(|e| panic!("parse error: {e}\n{src}"));
    lint_file(&file).into_iter().map(|f| f.rule).collect()
}

#[test]
fn listing1_loop_index_capture() {
    let src = r#"
package p

func ProcessJobs(jobs []Job) {
    for _, job := range jobs {
        go func() {
            ProcessJob(job)
        }()
    }
}
"#;
    assert!(rules(src).contains(&Rule::LoopVarCapture));

    // The privatizing idiom `}(job)`:
    let fixed = r#"
package p

func ProcessJobs(jobs []Job) {
    for _, job := range jobs {
        go func(job Job) {
            ProcessJob(job)
        }(job)
    }
}
"#;
    assert!(!rules(fixed).contains(&Rule::LoopVarCapture));
}

#[test]
fn listing2_err_capture() {
    let src = r#"
package p

func Handle() {
    x, err := Foo()
    if err != nil {
        return
    }
    go func() {
        _, err = Bar(x)
        if err != nil {
            log(err)
        }
    }()
    y, err := Baz()
    use(y, err)
}
"#;
    assert!(rules(src).contains(&Rule::ErrCapture));

    let fixed = r#"
package p

func Handle() {
    x, err := Foo()
    if err != nil {
        return
    }
    go func() {
        _, err2 := Bar(x)
        if err2 != nil {
            log(err2)
        }
    }()
    y, err := Baz()
    use(y, err)
}
"#;
    assert!(!rules(fixed).contains(&Rule::ErrCapture));
}

#[test]
fn listing3_named_return_capture() {
    let src = r#"
package p

func NamedReturnCallee() (result int) {
    result = 10
    if something() {
        return
    }
    go func() {
        use(result)
    }()
    return 20
}
"#;
    assert!(rules(src).contains(&Rule::NamedReturnCapture));

    let fixed = r#"
package p

func Callee() int {
    result := 10
    snapshot := result
    go func(r int) {
        use(r)
    }(snapshot)
    return 20
}
"#;
    assert!(!rules(fixed).contains(&Rule::NamedReturnCapture));
}

#[test]
fn listing4_named_return_with_defer() {
    let src = r#"
package p

func Redeem(request Entity) (resp Response, err error) {
    defer func() {
        resp, err = Foo(request, err)
    }()
    err = CheckRequest(request)
    go func() {
        ProcessRequest(request, err != nil)
    }()
    return
}
"#;
    assert!(rules(src).contains(&Rule::NamedReturnCapture));
}

#[test]
fn listing5_parses_safe_append() {
    // Listing 5's bug is a dynamic aliasing subtlety outside a syntactic
    // lint's reach; what matters here is that the idiomatic code parses and
    // scans correctly.
    let src = r#"
package p

func ProcessAll(uuids []string) {
    var myResults []string
    var mutex sync.Mutex
    safeAppend := func(res string) {
        mutex.Lock()
        myResults = append(myResults, res)
        mutex.Unlock()
    }
    for _, uuid := range uuids {
        go func(id string, results []string) {
            res := Foo(id)
            safeAppend(res)
        }(uuid, myResults)
    }
}
"#;
    let file = parse_file(src).expect("parses");
    let counts = scan_file(&file);
    assert_eq!(counts.go_statements, 1);
    assert_eq!(counts.lock_calls, 1);
    assert_eq!(counts.unlock_calls, 1);
    assert_eq!(counts.mutex_decls, 1);
    assert_eq!(counts.func_lits, 2);
}

#[test]
fn listing6_concurrent_map_write() {
    let src = r#"
package p

func processOrders(uuids []string) error {
    errMap := make(map[string]error)
    for _, uuid := range uuids {
        go func(uuid string) {
            err := GetOrder(uuid)
            if err != nil {
                errMap[uuid] = err
            }
        }(uuid)
    }
    return combineErrors(errMap)
}
"#;
    assert!(rules(src).contains(&Rule::MapWriteInGoroutine));

    let fixed = r#"
package p

func processOrders(uuids []string) error {
    errMap := make(map[string]error)
    var mu sync.Mutex
    for _, uuid := range uuids {
        go func(uuid string) {
            err := GetOrder(uuid)
            if err != nil {
                mu.Lock()
                local := err
                record(local)
                mu.Unlock()
            }
        }(uuid)
    }
    return combineErrors(errMap)
}
"#;
    assert!(!rules(fixed).contains(&Rule::MapWriteInGoroutine));
}

#[test]
fn listing7_mutex_by_value() {
    let src = r#"
package p

func CriticalSection(m sync.Mutex) {
    m.Lock()
    a = a + 1
    m.Unlock()
}

func main() {
    var mutex sync.Mutex
    go CriticalSection(mutex)
    go CriticalSection(mutex)
}
"#;
    assert!(rules(src).contains(&Rule::MutexByValue));

    let fixed = r#"
package p

func CriticalSection(m *sync.Mutex) {
    m.Lock()
    a = a + 1
    m.Unlock()
}

func main() {
    var mutex sync.Mutex
    go CriticalSection(&mutex)
    go CriticalSection(&mutex)
}
"#;
    assert!(!rules(fixed).contains(&Rule::MutexByValue));
}

#[test]
fn listing9_future_parses() {
    // Listing 9's select/channel structure; the race is dynamic, but the
    // parser must handle the full shape (methods, select, context).
    let src = r#"
package p

func (f *Future) Start() {
    go func() {
        resp, err := f.f()
        f.response = resp
        f.err = err
        f.ch <- 1
    }()
}

func (f *Future) Wait(ctx context.Context) error {
    select {
    case <-f.ch:
        return nil
    case <-ctx.Done():
        f.err = ErrCancelled
        return ErrCancelled
    }
}
"#;
    let file = parse_file(src).expect("parses");
    let counts = scan_file(&file);
    assert_eq!(counts.go_statements, 1);
    assert_eq!(counts.select_stmts, 1);
    assert_eq!(counts.chan_sends, 1);
    assert_eq!(counts.chan_recvs, 2);
}

#[test]
fn listing10_waitgroup_add_inside() {
    let src = r#"
package p

func WaitGrpExample(itemIds []int) int {
    var wg sync.WaitGroup
    results := make([]int, len(itemIds))
    for i, id := range itemIds {
        go func(i int, id int) {
            wg.Add(1)
            defer wg.Done()
            results[i] = process(id)
        }(i, id)
    }
    wg.Wait()
    sum := 0
    for _, r := range results {
        sum = sum + r
    }
    return sum
}
"#;
    assert!(rules(src).contains(&Rule::WaitGroupAddInGoroutine));

    let fixed = r#"
package p

func WaitGrpExample(itemIds []int) int {
    var wg sync.WaitGroup
    results := make([]int, len(itemIds))
    for i, id := range itemIds {
        wg.Add(1)
        go func(i int, id int) {
            defer wg.Done()
            results[i] = process(id)
        }(i, id)
    }
    wg.Wait()
    sum := 0
    for _, r := range results {
        sum = sum + r
    }
    return sum
}
"#;
    assert!(!rules(fixed).contains(&Rule::WaitGroupAddInGoroutine));
}

#[test]
fn listing11_write_under_rlock() {
    let src = r#"
package p

func (g *HealthGate) updateGate() {
    g.mutex.RLock()
    defer g.mutex.RUnlock()
    if ready() {
        g.ready = true
        g.gate.Accept()
    }
}
"#;
    assert!(rules(src).contains(&Rule::WriteUnderRLock));

    let fixed = r#"
package p

func (g *HealthGate) updateGate() {
    g.mutex.Lock()
    defer g.mutex.Unlock()
    if ready() {
        g.ready = true
        g.gate.Accept()
    }
}
"#;
    assert!(!rules(fixed).contains(&Rule::WriteUnderRLock));
}

#[test]
fn sequential_rlock_runlock_scopes_the_section() {
    let src = r#"
package p

func (s *Store) snapshot() int {
    s.mu.RLock()
    v := s.count
    s.mu.RUnlock()
    s.count = v + 1
    return v
}
"#;
    // The write happens AFTER RUnlock: no finding.
    assert!(!rules(src).contains(&Rule::WriteUnderRLock));

    let bad = r#"
package p

func (s *Store) snapshot() int {
    s.mu.RLock()
    v := s.count
    s.count = v + 1
    s.mu.RUnlock()
    return v
}
"#;
    assert!(rules(bad).contains(&Rule::WriteUnderRLock));
}

#[test]
fn shadowing_is_scope_aware() {
    // The pre-Go-1.22 fix idiom: a per-iteration copy BEFORE the `go`
    // statement shadows the loop variable, so the closure captures the
    // private copy. The old free-variable scan flagged this fixed code.
    let fixed_shadow = r#"
package p

func ProcessJobs(jobs []Job) {
    for _, job := range jobs {
        job := job
        go func() {
            ProcessJob(job)
        }()
    }
}
"#;
    assert!(!rules(fixed_shadow).contains(&Rule::LoopVarCapture));

    // A shadow AFTER the use does not protect it: the use still resolves
    // to the loop variable, and the race is real.
    let racy_shadow = r#"
package p

func ProcessJobs(jobs []Job) {
    for _, job := range jobs {
        go func() {
            ProcessJob(job)
            job := Refresh()
            ProcessJob(job)
        }()
    }
}
"#;
    assert!(rules(racy_shadow).contains(&Rule::LoopVarCapture));

    // Same discipline for err: an inner `err :=` is a different variable.
    let fixed_err = r#"
package p

func Handle() {
    x, err := Foo()
    go func() {
        err := Bar(x)
        if err != nil {
            log(err)
        }
    }()
    use(err)
}
"#;
    assert!(!rules(fixed_err).contains(&Rule::ErrCapture));
}

#[test]
fn missing_lock_partial_locking() {
    // Table 3's biggest class: guarded at the writer, bare at the reader.
    let src = r#"
package p

var config int
var mu sync.Mutex

func SetConfig(v int) {
    mu.Lock()
    config = v
    mu.Unlock()
}

func GetConfig() int {
    return config
}
"#;
    assert!(rules(src).contains(&Rule::MissingLock));

    let fixed = r#"
package p

var config int
var mu sync.Mutex

func SetConfig(v int) {
    mu.Lock()
    config = v
    mu.Unlock()
}

func GetConfig() int {
    mu.Lock()
    v := config
    mu.Unlock()
    return v
}
"#;
    assert!(!rules(fixed).contains(&Rule::MissingLock));
}

#[test]
fn inconsistent_lock_disjoint_mutexes() {
    let src = r#"
package p

var hits int

func (s *Server) CountA() {
    s.muA.Lock()
    hits = hits + 1
    s.muA.Unlock()
}

func (s *Server) CountB() {
    s.muB.Lock()
    hits = hits + 1
    s.muB.Unlock()
}
"#;
    assert!(rules(src).contains(&Rule::InconsistentLock));

    let fixed = r#"
package p

var hits int

func (s *Server) CountA() {
    s.muA.Lock()
    hits = hits + 1
    s.muA.Unlock()
}

func (s *Server) CountB() {
    s.muA.Lock()
    hits = hits + 1
    s.muA.Unlock()
}
"#;
    assert!(!rules(fixed).contains(&Rule::InconsistentLock));
}

#[test]
fn atomic_mixed_with_plain_access() {
    let src = r#"
package p

var ops int64

func Work() {
    go func() {
        atomic.AddInt64(&ops, 1)
    }()
    if ops > 100 {
        report(ops)
    }
}
"#;
    assert!(rules(src).contains(&Rule::AtomicMixedWithPlain));

    let fixed = r#"
package p

var ops int64

func Work() {
    go func() {
        atomic.AddInt64(&ops, 1)
    }()
    if atomic.LoadInt64(&ops) > 100 {
        report()
    }
}
"#;
    assert!(!rules(fixed).contains(&Rule::AtomicMixedWithPlain));
}

#[test]
fn double_checked_locking_idiom() {
    let src = r#"
package p

var instance *Config
var mu sync.Mutex

func GetInstance() *Config {
    if instance == nil {
        mu.Lock()
        if instance == nil {
            instance = New()
        }
        mu.Unlock()
    }
    return instance
}
"#;
    let rs = rules(src);
    assert!(rs.contains(&Rule::DoubleCheckedLocking), "{rs:?}");

    let fixed = r#"
package p

var instance *Config
var mu sync.Mutex

func GetInstance() *Config {
    mu.Lock()
    defer mu.Unlock()
    if instance == nil {
        instance = New()
    }
    return instance
}
"#;
    assert!(!rules(fixed).contains(&Rule::DoubleCheckedLocking));
}

#[test]
fn statement_order_goroutine_before_init() {
    let src = r#"
package p

func NewPoller() {
    p := Poller{}
    go func() {
        poll(p.interval)
    }()
    p.interval = 30
}
"#;
    assert!(rules(src).contains(&Rule::GoroutineBeforeInit));

    let fixed = r#"
package p

func NewPoller() {
    p := Poller{}
    p.interval = 30
    go func() {
        poll(p.interval)
    }()
}
"#;
    assert!(!rules(fixed).contains(&Rule::GoroutineBeforeInit));
}

/// `rule@line` for every finding, in report order.
fn flagged(src: &str) -> Vec<String> {
    let file = parse_file(src).unwrap_or_else(|e| panic!("parse error: {e}\n{src}"));
    lint_file(&file)
        .iter()
        .map(|f| format!("{}@{}", f.rule.id(), f.pos.line))
        .collect()
}

/// "At any depth" means the same thing to every rule: a shape flagged in a
/// function body is flagged wherever a statement list can hold it. Each
/// nested program sits next to its top-level twin.
#[test]
fn rules_see_every_statement_list_at_any_depth() {
    let cases: [(&str, &str, &str); 9] = [
        (
            "GR001 in a function body",
            "package p\nfunc f(jobs []int) {\n    for i := range jobs {\n        go func() { use(i) }()\n    }\n}\n",
            "GR001@4",
        ),
        (
            "GR001 inside a deferred closure",
            "package p\nfunc f(jobs []int) {\n    defer func() {\n        for i := range jobs {\n            go func() { use(i) }()\n        }\n    }()\n}\n",
            "GR001@5",
        ),
        (
            "GR001 inside a closure bound to a variable",
            "package p\nfunc f(jobs []int) {\n    run := func() {\n        for i := range jobs {\n            go func() { use(i) }()\n        }\n    }\n    run()\n}\n",
            "GR001@5",
        ),
        (
            "GR012 in a function body",
            "package p\nfunc f() {\n    cfg := 0\n    go func() { use(cfg) }()\n    cfg = 1\n}\n",
            "GR012@4",
        ),
        (
            "GR012 in an else-if arm",
            "package p\nfunc f(a bool, b bool) {\n    cfg := 0\n    if a {\n        use(a)\n    } else if b {\n        go func() { use(cfg) }()\n        cfg = 1\n    }\n}\n",
            "GR012@7",
        ),
        (
            "GR012 in a switch case",
            "package p\nfunc f(k int) {\n    cfg := 0\n    switch k {\n    case 1:\n        go func() { use(cfg) }()\n        cfg = 1\n    }\n}\n",
            "GR012@6",
        ),
        (
            "GR012 in a select case",
            "package p\nfunc f(ch chan int) {\n    cfg := 0\n    select {\n    case <-ch:\n        go func() { use(cfg) }()\n        cfg = 1\n    }\n}\n",
            "GR012@6",
        ),
        (
            "GR004 in the goroutine body",
            "package p\nfunc f() {\n    m := make(map[string]int)\n    go func() {\n        m[\"a\"] = 1\n    }()\n}\n",
            "GR004@5",
        ),
        (
            "GR004 inside an immediately-invoked closure inside the goroutine",
            "package p\nfunc f() {\n    m := make(map[string]int)\n    go func() {\n        func() {\n            m[\"b\"] = 2\n        }()\n    }()\n}\n",
            "GR004@6",
        ),
    ];
    let missed: Vec<String> = cases
        .iter()
        .filter(|(_, src, want)| !flagged(src).iter().any(|g| g == want))
        .map(|(what, _, want)| format!("{what}: no {want}"))
        .collect();
    assert!(missed.is_empty(), "{missed:#?}");
}
