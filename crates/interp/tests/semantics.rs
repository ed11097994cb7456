//! Language-semantics tests for the interpreter: each Go-lite construct
//! behaves like its Go counterpart. Programs communicate results through a
//! channel read by `main`, and a final `panic` marks failures (which the
//! runtime surfaces as goroutine panics).

use grs_detector::DetectorChoice;
use grs_interp::Interp;
use grs_runtime::{NullMonitor, RunConfig, Runtime};

/// Runs `main` and asserts a clean run (no panics/deadlocks/leaks).
fn run_ok(src: &str) {
    let interp = Interp::from_source(src).unwrap_or_else(|e| panic!("parse error: {e}"));
    let program = interp.program("semantics", "main");
    let (outcome, _) = Runtime::new(RunConfig::with_seed(1)).run(&program, NullMonitor);
    assert!(
        outcome.is_clean(),
        "program failed: errors={:?} deadlock={:?} leaked={:?}",
        outcome.errors,
        outcome.deadlock,
        outcome.leaked
    );
}

/// Runs `main` and asserts the program panicked with a message containing
/// `needle`.
fn run_panics(src: &str, needle: &str) {
    let interp = Interp::from_source(src).unwrap_or_else(|e| panic!("parse error: {e}"));
    let program = interp.program("semantics", "main");
    let (outcome, _) = Runtime::new(RunConfig::with_seed(1)).run(&program, NullMonitor);
    assert!(
        outcome.errors.iter().any(|e| e.to_string().contains(needle)),
        "expected panic containing {needle:?}, got {:?}",
        outcome.errors
    );
}

/// Go-lite has no assert; this helper wraps sources with one.
fn check(body: &str) -> String {
    format!(
        r#"
package main

func assert(cond bool, msg string) {{
    if !cond {{
        panic(msg)
    }}
}}

func main() {{
{body}
}}
"#
    )
}

#[test]
fn arithmetic_and_comparisons() {
    run_ok(&check(
        r#"
    assert(2+3*4 == 14, "precedence")
    assert((2+3)*4 == 20, "parens")
    assert(10/3 == 3, "int division")
    assert(10%3 == 1, "modulo")
    assert(7&3 == 3, "and")
    assert(4|1 == 5, "or")
    assert(1<<4 == 16, "shl")
    assert(-5 < 0 && 5 > 0, "signs")
    assert("a"+"b" == "ab", "concat")
    assert("abc" < "abd", "string order")
    "#,
    ));
}

#[test]
fn short_circuit_evaluation() {
    run_ok(&check(
        r#"
    hits := 0
    bump := func() bool {
        hits = hits + 1
        return true
    }
    ok := false || bump()
    assert(ok, "or result")
    ok2 := false && bump()
    assert(!ok2, "and result")
    assert(hits == 1, "rhs of && must not run")
    "#,
    ));
}

#[test]
fn closures_capture_by_reference() {
    run_ok(&check(
        r#"
    x := 1
    inc := func() { x = x + 1 }
    inc()
    inc()
    assert(x == 3, "closure mutated captured variable")
    "#,
    ));
}

#[test]
fn defer_runs_lifo_with_eager_args() {
    run_ok(&check(
        r#"
    order := []int{}
    f := func() {
        record := func(n int) { order = append(order, n) }
        x := 1
        defer record(x) // captures x == 1 NOW
        x = 2
        defer record(x) // captures x == 2 NOW
        x = 3
    }
    f()
    assert(len(order) == 2, "two defers")
    assert(order[0] == 2, "LIFO first")
    assert(order[1] == 1, "LIFO second")
    "#,
    ));
}

#[test]
fn named_returns_and_naked_return() {
    run_ok(
        r#"
package main

func assert(cond bool, msg string) {
    if !cond {
        panic(msg)
    }
}

func f(naked bool) (result int) {
    result = 10
    if naked {
        return
    }
    return 20
}

func deferred() (n int) {
    defer func() { n = n + 1 }()
    return 5
}

func main() {
    assert(f(true) == 10, "naked return reads the named cell")
    assert(f(false) == 20, "return expr writes the named cell")
    assert(deferred() == 6, "defer mutates the named result")
}
"#,
    );
}

#[test]
fn structs_methods_and_receivers() {
    run_ok(
        r#"
package main

type Counter struct {
    n int
}

func (c *Counter) bump() {
    c.n = c.n + 1
}

func (c Counter) bumpCopy() {
    c.n = c.n + 100 // mutates a copy only
}

func assert(cond bool, msg string) {
    if !cond {
        panic(msg)
    }
}

func main() {
    c := Counter{n: 5}
    c.bump()
    c.bump()
    assert(c.n == 7, "pointer receiver mutates")
    c.bumpCopy()
    assert(c.n == 7, "value receiver copies")
    p := &c
    p.bump()
    assert(c.n == 8, "method via pointer")
}
"#,
    );
}

#[test]
fn pointers_share_and_deref() {
    run_ok(&check(
        r#"
    x := 1
    p := &x
    *p = 9
    assert(x == 9, "write through pointer")
    assert(*p == 9, "read through pointer")
    "#,
    ));
}

#[test]
fn slices_and_maps() {
    run_ok(&check(
        r#"
    s := []int{1, 2, 3}
    s = append(s, 4)
    assert(len(s) == 4, "append grows")
    assert(s[3] == 4, "index")
    s[0] = 100
    assert(s[0] == 100, "set")
    total := 0
    for _, v := range s {
        total = total + v
    }
    assert(total == 109, "range sum")

    m := make(map[string]int)
    m["a"] = 1
    m["b"] = 2
    assert(m["a"] == 1, "map get")
    assert(len(m) == 2, "map len")
    delete(m, "a")
    assert(len(m) == 1, "delete")
    count := 0
    for k, v := range m {
        _ = k
        count = count + v
    }
    assert(count == 2, "map range")
    "#,
    ));
}

#[test]
fn channels_and_close() {
    run_ok(&check(
        r#"
    ch := make(chan int, 2)
    ch <- 1
    ch <- 2
    close(ch)
    a := <-ch
    b := <-ch
    c, ok := <-ch
    assert(a == 1 && b == 2, "fifo")
    assert(!ok, "closed")
    assert(c == nil, "zero value after close")
    "#,
    ));
}

#[test]
fn select_with_default() {
    run_ok(&check(
        r#"
    ch := make(chan int, 1)
    picked := 0
    select {
    case v := <-ch:
        picked = v
    default:
        picked = -1
    }
    assert(picked == -1, "default fires on empty channel")
    ch <- 7
    select {
    case v := <-ch:
        picked = v
    default:
        picked = -1
    }
    assert(picked == 7, "recv arm fires when ready")
    "#,
    ));
}

#[test]
fn select_send_arm() {
    run_ok(&check(
        r#"
    ch := make(chan int, 1)
    sent := false
    select {
    case ch <- 5:
        sent = true
    default:
    }
    assert(sent, "send arm fires with buffer space")
    select {
    case ch <- 6:
        panic("buffer full, send must not fire")
    default:
    }
    assert(<-ch == 5, "value delivered")
    "#,
    ));
}

#[test]
fn switch_statement() {
    run_ok(&check(
        r#"
    grade := func(score int) string {
        switch {
        case score >= 90:
            return "A"
        case score >= 80:
            return "B"
        default:
            return "C"
        }
    }
    assert(grade(95) == "A", "tagless switch")
    assert(grade(85) == "B", "second case")
    assert(grade(10) == "C", "default")
    day := 3
    name := ""
    switch day {
    case 1, 2:
        name = "early"
    case 3:
        name = "midweek"
    default:
        name = "late"
    }
    assert(name == "midweek", "tagged switch")
    "#,
    ));
}

#[test]
fn loops_break_continue() {
    run_ok(&check(
        r#"
    sum := 0
    for i := 0; i < 10; i++ {
        if i == 3 {
            continue
        }
        if i == 6 {
            break
        }
        sum = sum + i
    }
    assert(sum == 0+1+2+4+5, "break/continue")
    n := 0
    for n < 5 {
        n++
    }
    assert(n == 5, "condition-only for")
    "#,
    ));
}

#[test]
fn goroutines_and_waitgroup() {
    run_ok(&check(
        r#"
    var wg sync.WaitGroup
    var mu sync.Mutex
    total := 0
    for i := 0; i < 5; i++ {
        wg.Add(1)
        go func(i int) {
            mu.Lock()
            total = total + i
            mu.Unlock()
            wg.Done()
        }(i)
    }
    wg.Wait()
    assert(total == 10, "all goroutines ran")
    "#,
    ));
}

#[test]
fn multi_value_returns_spread() {
    run_ok(
        r#"
package main

func pair() (int, string) {
    return 7, "seven"
}

func assert(cond bool, msg string) {
    if !cond {
        panic(msg)
    }
}

func main() {
    n, s := pair()
    assert(n == 7, "first")
    assert(s == "seven", "second")
    a, _ := pair()
    assert(a == 7, "blank discards")
}
"#,
    );
}

#[test]
fn panic_surfaces_as_goroutine_panic() {
    run_panics(&check(r#"panic("boom")"#), "boom");
}

#[test]
fn undefined_variable_is_an_error() {
    run_panics(&check("x = missing"), "undefined");
}

#[test]
fn division_by_zero_is_an_error() {
    run_panics(
        &check(
            r#"
    zero := 0
    x := 1 / zero
    _ = x
    "#,
        ),
        "divide by zero",
    );
}

#[test]
fn global_variables_initialize_in_order() {
    run_ok(
        r#"
package main

var base = 10
var derived = base * 2

func assert(cond bool, msg string) {
    if !cond {
        panic(msg)
    }
}

func main() {
    assert(base == 10, "base")
    assert(derived == 20, "derived sees base")
    derived = 0
    assert(derived == 0, "globals are mutable")
}
"#,
    );
}

#[test]
fn range_over_channel_drains_until_close() {
    run_ok(&check(
        r#"
    ch := make(chan int, 3)
    go func() {
        ch <- 1
        ch <- 2
        ch <- 3
        close(ch)
    }()
    total := 0
    for v := range ch {
        total = total + v
    }
    assert(total == 6, "drained all values")
    "#,
    ));
}

#[test]
fn range_over_int_go_1_22() {
    run_ok(&check(
        r#"
    sum := 0
    for i := range 5 {
        sum = sum + i
    }
    assert(sum == 10, "range over int")
    "#,
    ));
}

// ---- scoping: a name denotes what `golite::resolve` says it does ----

/// FastTrack reports on one run of `main` at `seed`.
fn fasttrack_reports(src: &str, seed: u64) -> usize {
    let interp = Interp::from_source(src).unwrap_or_else(|e| panic!("parse error: {e}"));
    let program = interp.program("semantics", "main");
    let (outcome, reports) = DetectorChoice::FastTrack.run(&program, RunConfig::with_seed(seed));
    assert!(outcome.is_clean(), "seed {seed}: {:?}", outcome.errors);
    reports.len()
}

#[test]
fn a_closure_keeps_the_variable_visible_where_it_is_written() {
    run_ok(&check(
        r#"
    x := 1
    {
        h := func() int { return x }
        x := 2
        assert(h() == 1, "h reads the outer x, not the later shadow")
        assert(x == 2, "the shadow")
    }
    "#,
    ));
}

#[test]
fn a_goroutine_before_a_late_shadow_does_not_race_with_it() {
    let src = r#"
package main

func main() {
    n := 0
    done := make(chan bool, 1)
    {
        go func() {
            n = n + 1
            done <- true
        }()
        n := 0
        n = n + 1
    }
    <-done
}
"#;
    for seed in 0..64 {
        assert_eq!(fasttrack_reports(src, seed), 0, "seed {seed}");
    }
}

#[test]
fn a_loop_body_variable_is_fresh_per_iteration_and_a_for_variable_is_not() {
    run_ok(&check(
        r#"
    var a, b func() int
    for i := 0; i < 2; i++ {
        v := i
        if i == 0 {
            a = func() int { return v }
        } else {
            b = func() int { return v }
        }
    }
    assert(a() == 0 && b() == 1, "one v per iteration")
    var c, d func() int
    for i := 0; i < 2; i++ {
        if i == 0 {
            c = func() int { return i }
        } else {
            d = func() int { return i }
        }
    }
    assert(c() == 2 && d() == 2, "one i for the loop")
    "#,
    ));
}

#[test]
fn if_init_switch_case_and_select_clause_shadow_for_their_extent() {
    run_ok(&check(
        r#"
    x := 1
    h := func() int { return x }
    if x := 2; x == 2 {
        assert(x == 2, "if init shadows")
        assert(h() == 1, "h still reads the outer x")
    }
    assert(x == 1, "the if's x is gone")
    switch {
    case x == 1:
        x := 3
        assert(x == 3, "case body shadows")
        assert(h() == 1, "h still reads the outer x")
    }
    assert(x == 1, "the case's x is gone")
    ch := make(chan int, 1)
    ch <- 4
    select {
    case x := <-ch:
        assert(x == 4, "select clause shadows")
        assert(h() == 1, "h still reads the outer x")
    }
    assert(x == 1, "the clause's x is gone")
    "#,
    ));
}

#[test]
fn each_activation_of_a_recursive_function_has_its_own_locals() {
    run_ok(
        r#"
package main

func assert(cond bool, msg string) {
    if !cond {
        panic(msg)
    }
}

func depth(n int) int {
    local := n
    if n > 0 {
        depth(n - 1)
    }
    return local
}

func counter(start int) func() int {
    c := start
    return func() int {
        c = c + 1
        return c
    }
}

func main() {
    assert(depth(3) == 3, "the inner calls had their own local")
    a := counter(0)
    b := counter(10)
    a()
    assert(a() == 2, "a's c")
    assert(b() == 11, "b's c")
}
"#,
    );
}

#[test]
fn a_closure_two_literals_deep_captures_from_the_outermost_function() {
    run_ok(&check(
        r#"
    x := 1
    outer := func() func() int {
        return func() int { return x }
    }
    inner := outer()
    x = 5
    assert(inner() == 5, "reads the outer x")
    func() {
        func() {
            x = 7
        }()
    }()
    assert(x == 7, "writes the outer x")
    "#,
    ));
}

#[test]
fn a_redeclaring_define_writes_every_name_it_reuses() {
    run_ok(&check(
        r#"
    a, b := 1, 2
    h := func() int { return a + b }
    a, b, c := 10, 20, 30
    assert(h() == 30, "a and b were written, not shadowed")
    assert(c == 30, "c is new")
    "#,
    ));
}

#[test]
fn a_local_named_len_shadows_the_builtin() {
    run_ok(&check(
        r#"
    {
        len := func(s string) int { return 42 }
        assert(len("abc") == 42, "the local len")
    }
    assert(len("abc") == 3, "the builtin again")
    "#,
    ));
}

#[test]
fn a_local_shadows_a_global() {
    run_ok(
        r#"
package main

var g = 1

func assert(cond bool, msg string) {
    if !cond {
        panic(msg)
    }
}

func global() int { return g }

func inc(inc int) int { return inc + 1 }

func main() {
    h := func() int { return g }
    g := 2
    g = g + 1
    assert(g == 3, "the local g")
    assert(h() == 1, "h reads the global, written before the shadow")
    assert(global() == 1, "the global is untouched")
    assert(inc(1) == 2, "a parameter shadows its own function")
}
"#,
    );
}

#[test]
fn a_define_in_a_function_body_reuses_its_parameter() {
    run_ok(
        r#"
package main

func assert(cond bool, msg string) {
    if !cond {
        panic(msg)
    }
}

func decl(x int) int {
    h := func() int { return x }
    y, x := 1, 2
    _ = y
    _ = x
    return h()
}

func main() {
    assert(decl(0) == 2, "y, x := assigned the parameter x")
}
"#,
    );
}

/// The parser's nesting cap is what bounds the interpreter's recursion: a
/// program nested right up to it still evaluates on a goroutine's stack.
#[test]
fn programs_nested_up_to_the_parser_cap_run() {
    let n = grs_golite::parser::MAX_NESTING - 16;
    let parens = format!("{}20{}", "(".repeat(n), ")".repeat(n));
    let (ifs, closes) = ("if sum > 0 {\n".repeat(n), "}\n".repeat(n));
    let (funcs, calls) = ("func() {\n".repeat(n / 2), "}()\n".repeat(n / 2));
    run_ok(&check(&format!(
        r#"
    sum := {parens} + 1{}
    assert(sum == 41, "deep expression")
    {ifs}sum = 0
    {closes}
    assert(sum == 0, "deep blocks")
    {funcs}sum = 7
    {calls}
    assert(sum == 7, "deep closures")
    "#,
        " + 1".repeat(20)
    )));
}
