//! Table 3's language-agnostic shapes as Go source, executed through the
//! interpreter: missing/partial locking, globals, statement order, and the
//! parallel-test idiom (§4.8) modeled as concurrently launched subtests.

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
    assert_eq!(failed_runs(&r).0, 0, "{name}: runs with errors");
}

#[test]
fn partial_locking_go_source() {
    // The writer locks; the reader forgot — Observation 10's most common
    // shape.
    assert_racy(
        r#"
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
        "partial_locking_go",
    );
}

#[test]
fn consistent_locking_go_source_is_clean() {
    assert_clean(
        r#"
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
"#,
        "consistent_locking_go",
    );
}

#[test]
fn global_counter_go_source() {
    assert_racy(
        r#"
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
        "global_counter_go",
    );
}

#[test]
fn statement_order_go_source() {
    assert_racy(
        r#"
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
        "statement_order_go",
    );
}

#[test]
fn parallel_subtests_go_source() {
    // §4.8: table-driven subtests run "in parallel" (modeled as goroutines)
    // sharing one fixture.
    assert_racy(
        r#"
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
        "parallel_subtests_go",
    );
}

#[test]
fn parallel_subtests_private_fixture_clean() {
    assert_clean(
        r#"
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
"#,
        "parallel_private_fixture_go",
    );
}

#[test]
fn channel_pipeline_refactor_clean() {
    // The "fixed by a major refactor" end state: ownership transferred by
    // messages, no shared accumulator.
    assert_clean(
        r#"
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
"#,
        "pipeline_refactor_go",
    );
}
