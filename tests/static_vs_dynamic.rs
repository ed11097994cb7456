//! Cross-validation of the two analysis routes the project provides: the
//! *static* Go-lite lints (the paper's §5 remark on future static race
//! detection) and the *dynamic* detector over the runtime model. Every
//! lint rule has a Go-source rendition paired with an executable `grs`
//! pattern (`grs::patterns::gosrc`), and the two must agree on each:
//! lint fires ⟺ dynamic race detected.

use std::collections::BTreeSet;

use grs::fleet::{Campaign, CampaignConfig, CampaignUnit};
use grs::golite::{lint_file, parse_file, Rule};
use grs::patterns::{self, gosrc};

fn rules_of(src: &str, id: &str) -> Vec<Rule> {
    let file = parse_file(src).unwrap_or_else(|e| panic!("{id}: parse error {e}"));
    lint_file(&file).into_iter().map(|f| f.rule).collect()
}

/// The rendition corpus covers every lint rule exactly once.
#[test]
fn renditions_cover_every_rule() {
    let covered: BTreeSet<&str> = gosrc::renditions().iter().map(|r| r.rule).collect();
    let all: BTreeSet<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
    assert_eq!(covered, all);
    for r in gosrc::renditions() {
        assert!(
            Rule::from_id(r.rule).is_some(),
            "{}: unknown rule id {}",
            r.pattern_id,
            r.rule
        );
    }
}

/// For all 18 rules: the lint fires on the racy Go source and stays silent
/// on the fixed one, and a campaign detects a race in the executable racy
/// twin and none in the fixed twin.
#[test]
fn lints_and_dynamic_detection_agree_on_all_rules() {
    // Unit `2i` is rendition `i`'s racy twin, `2i + 1` its fixed one.
    let units = gosrc::renditions()
        .iter()
        .flat_map(|case| {
            let pattern = patterns::find(case.pattern_id)
                .unwrap_or_else(|| panic!("pattern {} missing", case.pattern_id));
            [true, false].map(|racy| CampaignUnit::pattern(&pattern, racy))
        })
        .collect();
    let dynamic = Campaign::over_units(CampaignConfig::new().seeds_per_unit(60), units).run();
    for (i, case) in gosrc::renditions().iter().enumerate() {
        let rule = Rule::from_id(case.rule).expect("known rule");

        // Static route.
        let racy_rules = rules_of(case.racy, case.pattern_id);
        assert!(
            racy_rules.contains(&rule),
            "{}: lint {rule:?} missing on the racy Go source (got {racy_rules:?})",
            case.pattern_id,
        );
        let fixed_rules = rules_of(case.fixed, case.pattern_id);
        assert!(
            !fixed_rules.contains(&rule),
            "{}: lint {rule:?} fired on the FIXED Go source",
            case.pattern_id,
        );

        // Dynamic route.
        assert!(
            dynamic.first_race(2 * i).is_some(),
            "{}: dynamic detection missed the racy program",
            case.pattern_id
        );
        assert!(
            dynamic.first_race(2 * i + 1).is_none(),
            "{}: dynamic detector flagged the fixed program",
            case.pattern_id
        );
    }
}

/// The canonical renditions use one fix per bug; real developers applied
/// others. Each alternate idiom below must also satisfy the lint: the racy
/// shape still fires, the differently-fixed shape stays silent.
struct AltCase {
    name: &'static str,
    rule: Rule,
    racy: &'static str,
    fixed: &'static str,
}

fn alternate_fixes() -> Vec<AltCase> {
    vec![
        // Fix by privatizing through a closure parameter, not `job := job`.
        AltCase {
            name: "loop_capture_param_fix",
            rule: Rule::LoopVarCapture,
            racy: r#"
package p
func ProcessJobs(jobs []int) {
    for _, job := range jobs {
        go func() { process(job) }()
    }
}
"#,
            fixed: r#"
package p
func ProcessJobs(jobs []int) {
    for _, job := range jobs {
        go func(job int) { process(job) }(job)
    }
}
"#,
        },
        // Fix by renaming, not by shadowing with `:=`.
        AltCase {
            name: "err_capture_rename_fix",
            rule: Rule::ErrCapture,
            racy: r#"
package p
func Handle() {
    x, err := Foo()
    go func() {
        _, err = Bar(x)
        use(err)
    }()
    y, err := Baz()
    use2(y, err)
}
"#,
            fixed: r#"
package p
func Handle() {
    x, err := Foo()
    go func() {
        _, err2 := Bar(x)
        use(err2)
    }()
    y, err := Baz()
    use2(y, err)
}
"#,
        },
        // `defer wg.Done()` form of the WaitGroup bug.
        AltCase {
            name: "waitgroup_defer_done",
            rule: Rule::WaitGroupAddInGoroutine,
            racy: r#"
package p
func Run(items []int) {
    var wg sync.WaitGroup
    for _, it := range items {
        go func(it int) {
            wg.Add(1)
            defer wg.Done()
            process(it)
        }(it)
    }
    wg.Wait()
}
"#,
            fixed: r#"
package p
func Run(items []int) {
    var wg sync.WaitGroup
    for _, it := range items {
        wg.Add(1)
        go func(it int) {
            defer wg.Done()
            process(it)
        }(it)
    }
    wg.Wait()
}
"#,
        },
        // Fix by keeping the map goroutine-local rather than serializing.
        AltCase {
            name: "map_local_fix",
            rule: Rule::MapWriteInGoroutine,
            racy: r#"
package p
func processOrders(uuids []string) {
    errMap := make(map[string]error)
    for _, id := range uuids {
        go func(id string) {
            errMap[id] = GetOrder(id)
        }(id)
    }
}
"#,
            fixed: r#"
package p
func processOrders(uuids []string) {
    for _, id := range uuids {
        go func(id string) {
            local := make(map[string]error)
            local[id] = GetOrder(id)
        }(id)
    }
}
"#,
        },
        // GR013 fixed by moving the lock INTO the helper instead of
        // teaching the reader about it.
        AltCase {
            name: "helper_lock_moved_inside",
            rule: Rule::InterprocMissingLock,
            racy: r#"
package p
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
package p
var mu sync.Mutex
var count int
func Incr() {
    bump()
}
func bump() {
    mu.Lock()
    count = count + 1
    mu.Unlock()
}
func Read() int {
    mu.Lock()
    v := count
    mu.Unlock()
    return v
}
"#,
        },
        // GR015 fixed by passing the loop variable by value to the
        // closure, not by a per-iteration copy.
        AltCase {
            name: "escaping_capture_value_param",
            rule: Rule::EscapingCaptureToSpawner,
            racy: r#"
package p
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
package p
func spawnWorker(fn func()) {
    go fn()
}
func ProcessAll(jobs []int) {
    for _, job := range jobs {
        spawnWorker(newTask(job))
    }
}
func newTask(job int) func() {
    return func() {
        process(job)
    }
}
"#,
        },
        // GR018 fixed with a channel join instead of a WaitGroup.
        AltCase {
            name: "spawned_chain_channel_join",
            rule: Rule::UnsyncedSpawnedCall,
            racy: r#"
package p
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
package p
var total int
func sum(n int) {
    if n > 0 {
        total = total + n
        sum(n - 1)
    }
}
func Run() {
    done := make(chan int)
    go func() {
        sum(8)
        done <- 1
    }()
    <-done
    report(total)
}
"#,
        },
        // Listing 11 with `defer`red unlocks (held to function exit).
        AltCase {
            name: "rlock_write_defer",
            rule: Rule::WriteUnderRLock,
            racy: r#"
package p
func (g *Gate) update() {
    g.mu.RLock()
    defer g.mu.RUnlock()
    if ok() {
        g.ready = true
    }
}
"#,
            fixed: r#"
package p
func (g *Gate) update() {
    g.mu.Lock()
    defer g.mu.Unlock()
    if ok() {
        g.ready = true
    }
}
"#,
        },
    ]
}

#[test]
fn alternate_fix_idioms_satisfy_the_lints() {
    for case in alternate_fixes() {
        let racy_rules = rules_of(case.racy, case.name);
        assert!(
            racy_rules.contains(&case.rule),
            "{}: lint {:?} missing on racy source (got {racy_rules:?})",
            case.name,
            case.rule
        );
        let fixed_rules = rules_of(case.fixed, case.name);
        assert!(
            !fixed_rules.contains(&case.rule),
            "{}: lint {:?} fired on the FIXED source",
            case.name,
            case.rule
        );
    }
}
