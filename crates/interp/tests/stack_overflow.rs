//! Runaway recursion in a Go program ends the goroutine with a typed
//! error, not the process with a stack overflow: `Rt::call_function`
//! checks [`grs_runtime::Ctx::stack_headroom`] before every Go call. The
//! depth reached depends on the build profile; the outcome does not.

use grs_interp::Interp;
use grs_runtime::{NullMonitor, RunConfig, RunOutcome, Runtime, RuntimeError};

const RECURSES_IN_MAIN: &str = r#"
package main

func f(n int) int { return f(n + 1) }

func main() {
    f(0)
}
"#;

const RECURSES_IN_GOROUTINE: &str = r#"
package main

func f(n int) int { return f(n + 1) }

func main() {
    go func() {
        f(0)
    }()
}
"#;

const CLEAN: &str = r#"
package main

func fib(n int) int {
    if n < 2 {
        return n
    }
    return fib(n-1) + fib(n-2)
}

func main() {
    done := make(chan int)
    go func() {
        done <- fib(10)
    }()
    if <-done != 55 {
        panic("fib")
    }
}
"#;

fn run(src: &str, seed: u64) -> RunOutcome {
    let interp = Interp::from_source(src).unwrap_or_else(|e| panic!("parse error: {e}"));
    let program = interp.program("stack_overflow", "main");
    Runtime::new(RunConfig::with_seed(seed))
        .run(&program, NullMonitor)
        .0
}

fn overflows_then_thread_is_fine(src: &str, goroutine: &str) {
    for seed in 1..=3 {
        let outcome = run(src, seed);
        match outcome.errors.as_slice() {
            [RuntimeError::GoroutinePanic {
                goroutine: who,
                message,
            }] => {
                assert_eq!(who, goroutine, "seed {seed}");
                assert!(
                    message.contains("stack overflow: goroutine stack exhausted calling f"),
                    "seed {seed}: {message}"
                );
            }
            other => panic!("seed {seed}: expected one stack-overflow panic, got {other:?}"),
        }
        assert!(outcome.deadlock.is_none() && outcome.leaked.is_empty());
        // Deep enough to have been real recursion, and well short of the
        // step budget: the stack ended the run, nothing else.
        assert!(
            outcome.steps > 20 && outcome.steps < 100_000,
            "{}",
            outcome.steps
        );
        // The overflowed stack went back to this thread's pool; the next
        // run takes it and is unaffected.
        assert!(
            run(CLEAN, seed).is_clean(),
            "seed {seed}: clean program after overflow"
        );
    }
}

#[test]
fn runaway_recursion_in_main_is_a_goroutine_panic() {
    overflows_then_thread_is_fine(RECURSES_IN_MAIN, "main");
}

#[test]
fn runaway_recursion_in_a_spawned_goroutine_is_a_goroutine_panic() {
    overflows_then_thread_is_fine(RECURSES_IN_GOROUTINE, "func literal");
}
