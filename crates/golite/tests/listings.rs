//! The rendition set's listings, parsed by Go-lite and checked against the
//! static lints: each entry's rule fires on its racy text and stays quiet
//! on every fix. Below them, the shapes the lints must read the same way
//! wherever they sit.

use grs_corpus::{listing, listings};
use grs_golite::{lint_file, parse_file, scan_file, ConstructCounts, Rule};

fn rules(src: &str) -> Vec<Rule> {
    let file = parse_file(src).unwrap_or_else(|e| panic!("parse error: {e}\n{src}"));
    lint_file(&file).into_iter().map(|f| f.rule).collect()
}

#[test]
fn every_listing_rule_fires_on_the_racy_text_and_on_no_fix() {
    let mut wrong = Vec::new();
    for l in listings() {
        let Some(id) = l.rule else { continue };
        let rule = Rule::from_id(id).unwrap_or_else(|| panic!("{}: unknown rule {id}", l.name));
        if !rules(l.racy).contains(&rule) {
            wrong.push(format!("{}: {id} missing on the racy text", l.name));
        }
        for (i, fixed) in l.fixed.iter().enumerate() {
            if rules(fixed).contains(&rule) {
                wrong.push(format!("{}: {id} fired on fix {i}", l.name));
            }
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}

fn racy_counts(name: &str) -> ConstructCounts {
    scan_file(&parse_file(listing(name).racy).expect("parses"))
}

#[test]
fn listing5_parses_safe_append() {
    // Listing 5's bug is a dynamic aliasing subtlety outside a syntactic
    // lint's reach; what matters here is that the idiomatic code parses and
    // scans correctly.
    let counts = racy_counts("listing5");
    assert_eq!(counts.go_statements, 1);
    assert_eq!(counts.lock_calls, 1);
    assert_eq!(counts.unlock_calls, 1);
    assert_eq!(counts.mutex_decls, 1);
    assert_eq!(counts.func_lits, 2);
}

#[test]
fn listing9_future_parses() {
    // Listing 9's select/channel structure; the race is dynamic, but the
    // parser must handle the full shape (methods, select, context).
    let counts = racy_counts("listing9_methods");
    assert_eq!(counts.go_statements, 1);
    assert_eq!(counts.select_stmts, 1);
    assert_eq!(counts.chan_sends, 1);
    assert_eq!(counts.chan_recvs, 2);
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
