//! End-to-end: the paper's listings as Go source, compiled by the Go-lite
//! frontend, executed on the instrumented runtime, and raced by the
//! dynamic detector. This is the closest the reproduction gets to
//! "run `go test -race` on the Zenodo artifact".

use grs::fleet::{Campaign, CampaignConfig, CampaignResult, CampaignUnit};
use grs_interp::Interp;

/// A one-unit campaign over `src`'s `main` across `seeds` seeds.
fn explore(src: &str, name: &str, seeds: usize) -> CampaignResult {
    let interp = Interp::from_source(src).unwrap_or_else(|e| panic!("{name}: parse error {e}"));
    let unit = CampaignUnit {
        name: name.to_string(),
        program: interp.program(name, "main"),
        expected_racy: None,
    };
    Campaign::over_units(CampaignConfig::new().seeds_per_unit(seeds), vec![unit]).run()
}

/// Runs that ended with a Go-level error and runs that deadlocked.
fn failed_runs(r: &CampaignResult) -> (usize, usize) {
    let errors = r.records.iter().filter(|x| x.end.errors > 0).count();
    let deadlocks = r.records.iter().filter(|x| x.end.deadlock).count();
    (errors, deadlocks)
}

fn assert_racy(src: &str, name: &str) {
    let r = explore(src, name, 60);
    assert!(r.first_race(0).is_some(), "{name}: no race detected (failed runs {:?})", failed_runs(&r));
}

fn assert_clean(src: &str, name: &str) {
    let r = explore(src, name, 60);
    if let Some(race) = r.first_race(0) {
        panic!("{name}: false positive {race}");
    }
    assert_eq!(failed_runs(&r), (0, 0), "{name}: (error, deadlocked) runs");
}

#[test]
fn listing1_go_source_races() {
    assert_racy(
        r#"
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
        "listing1_go",
    );
}

#[test]
fn listing1_go_source_fixed_is_clean() {
    assert_clean(
        r#"
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
"#,
        "listing1_go_fixed",
    );
}

#[test]
fn listing2_err_idiom_races() {
    assert_racy(
        r#"
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
        "listing2_go",
    );
}

#[test]
fn listing3_named_return_races() {
    assert_racy(
        r#"
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
        "listing3_go",
    );
}

#[test]
fn listing6_concurrent_map_races() {
    assert_racy(
        r#"
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
        "listing6_go",
    );
}

#[test]
fn listing7_mutex_by_value_races() {
    assert_racy(
        r#"
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
        "listing7_go",
    );
}

#[test]
fn listing7_fixed_pointer_is_clean() {
    assert_clean(
        r#"
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
"#,
        "listing7_go_fixed",
    );
}

#[test]
fn listing9_future_select_races_or_leaks() {
    // The Future pattern: completion goroutine vs cancellation arm.
    let src = r#"
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
"#;
    let r = explore(src, "listing9_go", 80);
    assert!(r.first_race(0).is_some(), "cancellation write must race the completion");
    assert!(
        r.records.iter().any(|x| x.end.leaked > 0),
        "the sender must leak when cancellation wins"
    );
}

#[test]
fn listing10_waitgroup_add_inside_races() {
    assert_racy(
        r#"
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
        "listing10_go",
    );
}

#[test]
fn listing10_fixed_is_clean() {
    assert_clean(
        r#"
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
"#,
        "listing10_go_fixed",
    );
}

#[test]
fn listing11_rlock_write_races() {
    assert_racy(
        r#"
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
        "listing11_go",
    );
}

#[test]
fn listing11_fixed_write_lock_is_clean() {
    assert_clean(
        r#"
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
"#,
        "listing11_go_fixed",
    );
}

#[test]
fn listing5_slice_header_copy_races() {
    // The paper's subtlest slice race: safeAppend locks correctly, but
    // passing `myResults` by value copies the slice header without the
    // lock.
    assert_racy(
        r#"
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
        "listing5_go",
    );
}

#[test]
fn listing5_fixed_no_value_pass_is_clean() {
    assert_clean(
        r#"
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
"#,
        "listing5_go_fixed",
    );
}

#[test]
fn double_checked_locking_go_source_races() {
    assert_racy(
        r#"
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
        "double_checked_go",
    );
}

#[test]
fn once_fixed_lazy_init_is_clean() {
    assert_clean(
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
        "once_fixed_go",
    );
}
