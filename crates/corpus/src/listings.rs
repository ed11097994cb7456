//! The rendition set: every Go-source listing text in the repository, once.
//!
//! The paper's Listings 1–11, Table 3's shapes and one Go pair per lint
//! rule, each written as Go-lite source with its fixes. An entry names the
//! executable twin in `grs_patterns::registry()` whose category is the
//! entry's, the lint rule that flags its racy text, and its ground truth.
//! The tests read the whole set: every text of an entry that names a rule
//! is linted, every program (a `package main` text) of an entry whose
//! truth runs is raced by a campaign. Two views of it feed the rest of the
//! system: [`go_snippets`], the campaign suite, and
//! `grs_patterns::gosrc::renditions()`, the [`Truth::Agrees`] pairs.
//!
//! The set lives next to the generators, so `grs-fleet` treats the
//! snippets as just another source-level unit stream: the same lowering
//! path that compiles [`GoTestGen`](crate::GoTestGen) output compiles
//! these, and there is exactly one place in the system that turns Go
//! source into campaign units.

/// What the tests hold an entry's texts to, beyond its lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// No text is a program; the rule, which every such entry names, is
    /// the verdict.
    Lint,
    /// As [`Truth::Lint`], and the pair is its rule's static-vs-dynamic
    /// agreement rendition: a campaign races the twin's racy program and
    /// not its fixed one. One entry per rule.
    Agrees,
    /// No text is a program and no rule names the race: the text is held
    /// to its parse and its construct counts.
    Parses,
    /// A campaign of 60 seeds races the racy program; over each fixed
    /// program it reports no race, and no run ends in a Go-level error or
    /// a deadlock.
    Races,
    /// As [`Truth::Races`], but a fixed program's deadlocks are not
    /// checked.
    RacesDeadlockUnchecked,
    /// A campaign of 80 seeds races the racy program, and on some seed the
    /// losing sender leaks.
    RacesAndLeaks,
}

impl Truth {
    /// Seeds in the campaign over the entry's programs; `None` when no
    /// campaign runs them.
    #[must_use]
    pub fn seeds(self) -> Option<usize> {
        match self {
            Truth::Lint | Truth::Agrees | Truth::Parses => None,
            Truth::Races | Truth::RacesDeadlockUnchecked => Some(60),
            Truth::RacesAndLeaks => Some(80),
        }
    }
}

/// One listing: a racy Go text, its fixes, and its ground truth.
#[derive(Debug, Clone, Copy)]
pub struct Listing {
    /// Unique name.
    pub name: &'static str,
    /// ID of the executable pattern this is the source form of.
    pub twin: Option<&'static str>,
    /// The lint rule (`GR001`…`GR018`) that fires on `racy` and on no text
    /// of `fixed`.
    pub rule: Option<&'static str>,
    /// What the tests hold the texts to beyond `rule`.
    pub truth: Truth,
    /// Go-lite source containing the race.
    pub racy: &'static str,
    /// Go-lite sources with a fix applied; a fix that is not a program is
    /// only linted.
    pub fixed: &'static [&'static str],
}

impl Listing {
    /// The racy text, then each fixed text.
    pub fn texts(&self) -> impl Iterator<Item = &'static str> {
        std::iter::once(self.racy).chain(self.fixed.iter().copied())
    }
}

/// Whether `text` is a program: a `package main` a campaign runs from
/// `main`.
#[must_use]
pub fn is_program(text: &str) -> bool {
    text.trim_start().starts_with("package main\n")
}

/// The whole set.
#[must_use]
pub fn listings() -> &'static [Listing] {
    LISTINGS
}

/// The entry named `name`.
///
/// # Panics
///
/// When no entry has that name (at compile time, in a constant).
#[must_use]
pub const fn listing(name: &str) -> &'static Listing {
    let want = name.as_bytes();
    let mut i = 0;
    while i < LISTINGS.len() {
        let have = LISTINGS[i].name.as_bytes();
        let mut j = 0;
        while j < have.len() && j < want.len() && have[j] == want[j] {
            j += 1;
        }
        if j == have.len() && j == want.len() {
            return &LISTINGS[i];
        }
        i += 1;
    }
    panic!("no listing of that name");
}

/// One embedded Go program with ground truth.
#[derive(Debug, Clone, Copy)]
pub struct GoSnippet {
    /// Display name (`go/<pattern>/<racy|fixed>`).
    pub name: &'static str,
    /// Ground truth: does the snippet contain a race?
    pub expected_racy: bool,
    /// The complete `package main` source.
    pub source: &'static str,
}

/// The embedded campaign suite: racy/fixed programs of the paper's loop
/// capture (Listing 1), mutex-by-value (Listing 7), and concurrent-map
/// (Listing 6, Observation 4) bugs.
#[must_use]
pub fn go_snippets() -> &'static [GoSnippet] {
    &SNIPPETS
}

static SNIPPETS: [GoSnippet; 5] = [
    GoSnippet {
        name: "go/loop_capture/racy",
        expected_racy: true,
        source: listing("listing1").racy,
    },
    GoSnippet {
        name: "go/loop_capture/fixed",
        expected_racy: false,
        source: listing("listing1").fixed[0],
    },
    GoSnippet {
        name: "go/mutex_by_value/racy",
        expected_racy: true,
        source: listing("listing7").racy,
    },
    GoSnippet {
        name: "go/mutex_by_value/fixed",
        expected_racy: false,
        source: listing("listing7").fixed[0],
    },
    GoSnippet {
        name: "go/concurrent_map/racy",
        expected_racy: true,
        source: listing("listing6").racy,
    },
];

const LISTINGS: &[Listing] = &[
    Listing {
        name: "listing1",
        twin: Some("loop_index_capture"),
        rule: Some("GR001"),
        truth: Truth::Races,
        racy: r#"
package main

func processJob(j int) int {
    return j * 2
}

func main() {
    jobs := []int{10, 20, 30}
    done := make(chan bool, 3)
    for _, job := range jobs {
        go func() {
            processJob(job)
            done <- true
        }()
    }
    <-done
    <-done
    <-done
}
"#,
        fixed: &[r#"
package main

func processJob(j int) int {
    return j * 2
}

func main() {
    jobs := []int{10, 20, 30}
    done := make(chan bool, 3)
    for _, job := range jobs {
        go func(job int) {
            processJob(job)
            done <- true
        }(job)
    }
    <-done
    <-done
    <-done
}
"#],
    },
    Listing {
        name: "listing2",
        twin: Some("err_capture"),
        rule: Some("GR002"),
        truth: Truth::Races,
        racy: r#"
package main

func foo() (int, string) {
    return 1, ""
}

func bar(x int) (int, string) {
    return x, "bar failed"
}

func main() {
    done := make(chan bool, 1)
    x, err := foo()
    if err != "" {
        return
    }
    go func() {
        _, err = bar(x)
        if err != "" {
            x = 0
        }
        done <- true
    }()
    y, err := foo()
    _ = y
    _ = err
    <-done
}
"#,
        fixed: &[r#"
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
"#],
    },
    Listing {
        name: "listing3",
        twin: Some("named_return_capture"),
        rule: Some("GR003"),
        truth: Truth::Races,
        racy: r#"
package main

func namedReturnCallee(done chan bool) (result int) {
    result = 10
    go func() {
        if result > 0 {
            done <- true
        } else {
            done <- false
        }
    }()
    return 20
}

func main() {
    done := make(chan bool, 1)
    retVal := namedReturnCallee(done)
    _ = retVal
    <-done
}
"#,
        fixed: &[r#"
package p

func Callee() int {
    result := 10
    snapshot := result
    go func(r int) {
        use(r)
    }(snapshot)
    return 20
}
"#],
    },
    Listing {
        name: "listing4",
        twin: Some("named_return_defer"),
        rule: Some("GR003"),
        truth: Truth::Lint,
        racy: r#"
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
"#,
        fixed: &[],
    },
    // The paper's subtlest slice race: `safeAppend` locks correctly, but
    // passing `myResults` by value copies the slice header without the lock.
    // No rule reaches it: the aliasing is dynamic.
    Listing {
        name: "listing5",
        twin: Some("slice_header_copy"),
        rule: None,
        truth: Truth::Races,
        racy: r#"
package main

func foo(id int) int {
    return id * 10
}

func main() {
    var myResults []int
    var mutex sync.Mutex
    safeAppend := func(res int) {
        mutex.Lock()
        myResults = append(myResults, res)
        mutex.Unlock()
    }
    done := make(chan bool, 3)
    uuids := []int{1, 2, 3}
    for _, uuid := range uuids {
        go func(id int, results []int) {
            res := foo(id)
            safeAppend(res)
            done <- true
        }(uuid, myResults)
    }
    <-done
    <-done
    <-done
}
"#,
        fixed: &[r#"
package main

func foo(id int) int {
    return id * 10
}

func main() {
    var myResults []int
    var mutex sync.Mutex
    safeAppend := func(res int) {
        mutex.Lock()
        myResults = append(myResults, res)
        mutex.Unlock()
    }
    done := make(chan bool, 3)
    uuids := []int{1, 2, 3}
    for _, uuid := range uuids {
        go func(id int) {
            res := foo(id)
            safeAppend(res)
            done <- true
        }(uuid)
    }
    <-done
    <-done
    <-done
    mutex.Lock()
    _ = len(myResults)
    mutex.Unlock()
}
"#],
    },
    Listing {
        name: "listing6",
        twin: Some("map_concurrent_write"),
        rule: Some("GR004"),
        truth: Truth::Races,
        racy: r#"
package main

func getOrder(uuid int) string {
    if uuid > 1 {
        return "failed"
    }
    return ""
}

func main() {
    uuids := []int{1, 2, 3}
    errMap := make(map[int]string)
    done := make(chan bool, 3)
    for _, uuid := range uuids {
        go func(uuid int) {
            err := getOrder(uuid)
            if err != "" {
                errMap[uuid] = err
            }
            done <- true
        }(uuid)
    }
    <-done
    <-done
    <-done
    _ = len(errMap)
}
"#,
        fixed: &[r#"
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
"#],
    },
    Listing {
        name: "listing7",
        twin: Some("mutex_by_value"),
        rule: Some("GR005"),
        truth: Truth::Races,
        racy: r#"
package main

var a int

func criticalSection(m sync.Mutex) {
    m.Lock()
    a = a + 1
    m.Unlock()
}

func main() {
    var mutex sync.Mutex
    done := make(chan bool, 2)
    go func(m sync.Mutex) {
        criticalSection(m)
        done <- true
    }(mutex)
    go func(m sync.Mutex) {
        criticalSection(m)
        done <- true
    }(mutex)
    <-done
    <-done
}
"#,
        fixed: &[r#"
package main

var a int

func criticalSection(m *sync.Mutex) {
    m.Lock()
    a = a + 1
    m.Unlock()
}

func main() {
    var mutex sync.Mutex
    done := make(chan bool, 2)
    go func() {
        criticalSection(&mutex)
        done <- true
    }()
    go func() {
        criticalSection(&mutex)
        done <- true
    }()
    <-done
    <-done
}
"#],
    },
    // The Future pattern: completion goroutine vs cancellation arm.
    Listing {
        name: "listing9",
        twin: Some("future_cancel"),
        rule: None,
        truth: Truth::RacesAndLeaks,
        racy: r#"
package main

type Future struct {
    response int
    err      string
}

func main() {
    f := Future{}
    ch := make(chan int)
    cancelled := make(chan bool)
    go func() {
        sleep(3)
        f.response = 42
        f.err = ""
        ch <- 1
    }()
    go func() {
        sleep(2)
        close(cancelled)
    }()
    select {
    case <-ch:
        _ = f.err
    case <-cancelled:
        f.err = "ErrCancelled"
    }
}
"#,
        fixed: &[],
    },
    // Listing 9 as the paper writes it, with methods, `select` and a context.
    Listing {
        name: "listing9_methods",
        twin: Some("future_cancel"),
        rule: None,
        truth: Truth::Parses,
        racy: r#"
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
"#,
        fixed: &[],
    },
    Listing {
        name: "listing10",
        twin: Some("waitgroup_add_inside"),
        rule: Some("GR006"),
        truth: Truth::Races,
        racy: r#"
package main

func main() {
    itemIds := []int{1, 2, 3, 4}
    var wg sync.WaitGroup
    results := make([]int, 4)
    for i, id := range itemIds {
        go func(i int, id int) {
            wg.Add(1)
            defer wg.Done()
            results[i] = id * 10
        }(i, id)
    }
    wg.Wait()
    total := 0
    for _, r := range results {
        total = total + r
    }
    _ = total
}
"#,
        fixed: &[r#"
package main

func main() {
    itemIds := []int{1, 2, 3, 4}
    var wg sync.WaitGroup
    results := make([]int, 4)
    for i, id := range itemIds {
        wg.Add(1)
        go func(i int, id int) {
            defer wg.Done()
            results[i] = id * 10
        }(i, id)
    }
    wg.Wait()
    total := 0
    for _, r := range results {
        total = total + r
    }
    _ = total
}
"#],
    },
    Listing {
        name: "listing11",
        twin: Some("rlock_write"),
        rule: Some("GR009"),
        truth: Truth::Races,
        racy: r#"
package main

type HealthGate struct {
    mutex   sync.RWMutex
    ready   bool
    accepts int
}

func (g *HealthGate) updateGate() {
    g.mutex.RLock()
    defer g.mutex.RUnlock()
    if !g.ready {
        g.ready = true
        g.accepts = g.accepts + 1
    }
}

func main() {
    g := HealthGate{}
    var wg sync.WaitGroup
    wg.Add(2)
    go func() {
        g.updateGate()
        wg.Done()
    }()
    go func() {
        g.updateGate()
        wg.Done()
    }()
    wg.Wait()
}
"#,
        fixed: &[r#"
package main

type HealthGate struct {
    mutex   sync.RWMutex
    ready   bool
    accepts int
}

func (g *HealthGate) updateGate() {
    g.mutex.Lock()
    defer g.mutex.Unlock()
    if !g.ready {
        g.ready = true
        g.accepts = g.accepts + 1
    }
}

func main() {
    g := HealthGate{}
    var wg sync.WaitGroup
    wg.Add(2)
    go func() {
        g.updateGate()
        wg.Done()
    }()
    go func() {
        g.updateGate()
        wg.Done()
    }()
    wg.Wait()
}
"#],
    },
    // Double-checked lazy initialisation, fixed by `sync.Once` and by one lock.
    Listing {
        name: "lazy_init",
        twin: Some("double_checked_locking"),
        rule: Some("GR011"),
        truth: Truth::Races,
        racy: r#"
package main

var instance int
var mu sync.Mutex

func getInstance() int {
    if instance == 0 {
        mu.Lock()
        if instance == 0 {
            instance = 99
        }
        mu.Unlock()
    }
    return instance
}

func main() {
    done := make(chan bool, 2)
    go func() {
        getInstance()
        done <- true
    }()
    go func() {
        getInstance()
        done <- true
    }()
    <-done
    <-done
}
"#,
        fixed: &[
            r#"
package main

var instance int
var initOnce sync.Once

func getInstance() int {
    initOnce.Do(func() {
        instance = 99
    })
    return instance
}

func main() {
    done := make(chan bool, 2)
    go func() {
        getInstance()
        done <- true
    }()
    go func() {
        getInstance()
        done <- true
    }()
    <-done
    <-done
}
"#,
            r#"
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
"#,
        ],
    },
    // The writer locks; the reader forgot (Observation 10's most common shape).
    Listing {
        name: "partial_locking",
        twin: Some("partial_lock"),
        rule: Some("GR013"),
        truth: Truth::RacesDeadlockUnchecked,
        racy: r#"
package main

var version int
var mu sync.Mutex

func setConfig(v int) {
    mu.Lock()
    version = v
    mu.Unlock()
}

func getConfig() int {
    return version // no lock!
}

func main() {
    done := make(chan bool, 1)
    go func() {
        setConfig(2)
        done <- true
    }()
    _ = getConfig()
    <-done
}
"#,
        fixed: &[r#"
package main

var version int
var mu sync.Mutex

func setConfig(v int) {
    mu.Lock()
    version = v
    mu.Unlock()
}

func getConfig() int {
    mu.Lock()
    v := version
    mu.Unlock()
    return v
}

func main() {
    done := make(chan bool, 1)
    go func() {
        setConfig(2)
        done <- true
    }()
    _ = getConfig()
    <-done
}
"#],
    },
    // Fixed by a major refactor: ownership moves by message, no shared
    // accumulator is left.
    Listing {
        name: "global_counter",
        twin: Some("global_variable"),
        rule: None,
        truth: Truth::RacesDeadlockUnchecked,
        racy: r#"
package main

var requestCount int

func handle() {
    requestCount = requestCount + 1
}

func main() {
    done := make(chan bool, 3)
    for i := 0; i < 3; i++ {
        go func() {
            handle()
            done <- true
        }()
    }
    <-done
    <-done
    <-done
}
"#,
        fixed: &[r#"
package main

func main() {
    results := make(chan int, 3)
    for i := 0; i < 3; i++ {
        go func(i int) {
            results <- i * 10
        }(i)
    }
    total := 0
    for i := 0; i < 3; i++ {
        total = total + <-results
    }
    if total != 30 {
        panic("bad total")
    }
}
"#],
    },
    Listing {
        name: "goroutine_before_init",
        twin: Some("statement_order"),
        rule: Some("GR012"),
        truth: Truth::RacesDeadlockUnchecked,
        racy: r#"
package main

type Poller struct {
    interval int
}

func main() {
    p := Poller{}
    done := make(chan bool, 1)
    go func() {
        _ = p.interval // reads config...
        done <- true
    }()
    p.interval = 30 // ...assigned after the go statement
    <-done
}
"#,
        fixed: &[r#"
package p

func NewPoller() {
    p := Poller{}
    p.interval = 30
    go func() {
        poll(p.interval)
    }()
}
"#],
    },
    // Section 4.8: table-driven subtests run in parallel (modeled as
    // goroutines) share one fixture; the fix gives each subtest its own.
    Listing {
        name: "parallel_subtests",
        twin: Some("parallel_subtests_shared_fixture"),
        rule: None,
        truth: Truth::RacesDeadlockUnchecked,
        racy: r#"
package main

type Fixture struct {
    mode int
}

func main() {
    fixture := Fixture{}
    cases := []int{1, 2, 3}
    done := make(chan bool, 3)
    for _, c := range cases {
        go func(c int) {
            fixture.mode = c // t.Parallel() subtests share the fixture
            _ = fixture.mode
            done <- true
        }(c)
    }
    <-done
    <-done
    <-done
}
"#,
        fixed: &[r#"
package main

type Fixture struct {
    mode int
}

func main() {
    cases := []int{1, 2, 3}
    done := make(chan bool, 3)
    for _, c := range cases {
        go func(c int) {
            fixture := Fixture{} // each subtest builds its own
            fixture.mode = c
            _ = fixture.mode
            done <- true
        }(c)
    }
    <-done
    <-done
    <-done
}
"#],
    },
    // `GR008` on a package-level variable; the agreement pair guards a field.
    Listing {
        name: "inconsistent_lock_global",
        twin: Some("inconsistent_lock"),
        rule: Some("GR008"),
        truth: Truth::Lint,
        racy: r#"
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
"#,
        fixed: &[r#"
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
"#],
    },
    // `GR010` within one function; the agreement pair splits it across two.
    Listing {
        name: "atomic_then_plain_read",
        twin: Some("partial_atomic"),
        rule: Some("GR010"),
        truth: Truth::Lint,
        racy: r#"
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
"#,
        fixed: &[r#"
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
"#],
    },
    // The static-vs-dynamic agreement pairs, one per rule in rule order.
    // From `GR013` on, each splits its bug across at least two functions.
    Listing {
        name: "loop_index_capture",
        twin: Some("loop_index_capture"),
        rule: Some("GR001"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
package worker

func ProcessAll(jobs []int) {
    for _, job := range jobs {
        job := job
        go func() {
            process(job)
        }()
    }
}
"#],
    },
    Listing {
        name: "err_capture",
        twin: Some("err_capture"),
        rule: Some("GR002"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
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
"#],
    },
    Listing {
        name: "named_return_capture",
        twin: Some("named_return_capture"),
        rule: Some("GR003"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
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
"#],
    },
    Listing {
        name: "map_concurrent_write",
        twin: Some("map_concurrent_write"),
        rule: Some("GR004"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
package cachepkg

func Warm(keys []string) {
    cache := makeCache()
    for _, k := range keys {
        cache[k] = fetch(k)
    }
}
"#],
    },
    Listing {
        name: "mutex_by_value",
        twin: Some("mutex_by_value"),
        rule: Some("GR005"),
        truth: Truth::Agrees,
        racy: r#"
package store

func Push(mu sync.Mutex, v int) {
    mu.Lock()
    enqueue(v)
    mu.Unlock()
}
"#,
        fixed: &[r#"
package store

func Push(mu *sync.Mutex, v int) {
    mu.Lock()
    enqueue(v)
    mu.Unlock()
}
"#],
    },
    Listing {
        name: "waitgroup_add_inside",
        twin: Some("waitgroup_add_inside"),
        rule: Some("GR006"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
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
"#],
    },
    // Table 3's biggest class: guarded at the writer, bare at the reader.
    Listing {
        name: "partial_lock",
        twin: Some("partial_lock"),
        rule: Some("GR007"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
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
"#],
    },
    Listing {
        name: "inconsistent_lock",
        twin: Some("inconsistent_lock"),
        rule: Some("GR008"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
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
"#],
    },
    Listing {
        name: "rlock_write",
        twin: Some("rlock_write"),
        rule: Some("GR009"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
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
"#],
    },
    Listing {
        name: "partial_atomic",
        twin: Some("partial_atomic"),
        rule: Some("GR010"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
package metrics

var hits int64

func Inc() {
    atomic.AddInt64(&hits, 1)
}

func Snapshot() int64 {
    return atomic.LoadInt64(&hits)
}
"#],
    },
    Listing {
        name: "double_checked_locking",
        twin: Some("double_checked_locking"),
        rule: Some("GR011"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
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
"#],
    },
    Listing {
        name: "statement_order",
        twin: Some("statement_order"),
        rule: Some("GR012"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
package server

func Serve() {
    var srv int
    srv = newServer()
    go func() {
        handle(srv)
    }()
}
"#],
    },
    Listing {
        name: "helper_hidden_lock",
        twin: Some("helper_hidden_lock"),
        rule: Some("GR013"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
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
"#],
    },
    Listing {
        name: "caller_side_locks",
        twin: Some("caller_side_locks"),
        rule: Some("GR014"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
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
"#],
    },
    Listing {
        name: "closure_to_worker",
        twin: Some("closure_to_worker"),
        rule: Some("GR015"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
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
"#],
    },
    Listing {
        name: "lock_dropped_before_call",
        twin: Some("lock_dropped_before_call"),
        rule: Some("GR016"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
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
"#],
    },
    Listing {
        name: "spawn_in_callee_map_write",
        twin: Some("spawn_in_callee_map_write"),
        rule: Some("GR017"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
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
"#],
    },
    Listing {
        name: "recursive_accessor",
        twin: Some("recursive_accessor"),
        rule: Some("GR018"),
        truth: Truth::Agrees,
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
        fixed: &[r#"
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
"#],
    },
];
