//! The per-test Go corpus emitter — source-level campaign workload.
//!
//! Where [`gogen`](crate::gogen) emits a whole synthetic monorepo as one
//! eager file list (the Table 1 scanning substrate), this module emits
//! **one standalone test at a time**: [`GoTestGen::emit`] is a pure
//! function of `(spec, seed, test_index)`, so a 100,000-test campaign can
//! lower tests lazily as workers pull work and never hold more than a
//! handful of sources in memory — the paper's "~100K unit tests nightly"
//! deployment shape (§3).
//!
//! Every emitted test is a complete, golite-parseable `package main` file
//! whose `main` function is the test body. Tests are drawn from a fixed
//! template family with ground-truth raciness:
//!
//! * **racy** templates put two structurally unordered accesses on a
//!   shared variable, slice element, or map — detectable by a
//!   happens-before detector on *every* schedule, not just lucky ones;
//! * **clean** templates perform the same work privatized, mutex-guarded,
//!   RWMutex-guarded, or channel-sequenced — the false-positive control
//!   group at corpus scale.
//!
//! Construct mix (goroutines, mutexes, RWMutexes, channels, WaitGroups,
//! maps, slices, closures, helper calls) deliberately spans everything
//! [`gogen`](crate::gogen) emits, so the interpreter path hardened against
//! this generator is hardened against the monorepo generator too.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs for the per-test generator.
#[derive(Debug, Clone, Copy)]
pub struct GoTestSpec {
    /// How many tests per thousand draw a racy template (0..=1000).
    pub racy_per_mille: u32,
    /// Upper bound on extra sequential filler snippets per test (each is
    /// a self-contained lock/rlock/chan/wg/map/arithmetic block).
    pub fillers_max: u32,
}

impl GoTestSpec {
    /// The paper-shaped default: roughly a fifth of tests harbor a race
    /// (the nightly deployment's races concentrate in a minority of
    /// tests), with up to two filler snippets of sequential sync noise.
    #[must_use]
    pub fn default_mix() -> Self {
        GoTestSpec {
            racy_per_mille: 200,
            fillers_max: 2,
        }
    }

    /// Sets the racy fraction in tests-per-thousand (builder style),
    /// clamped to 0..=1000.
    #[must_use]
    pub fn racy_per_mille(mut self, per_mille: u32) -> Self {
        self.racy_per_mille = per_mille.min(1000);
        self
    }

    /// Sets the filler-snippet cap (builder style).
    #[must_use]
    pub fn fillers_max(mut self, max: u32) -> Self {
        self.fillers_max = max;
        self
    }
}

impl Default for GoTestSpec {
    fn default() -> Self {
        Self::default_mix()
    }
}

/// One generated test: a standalone Go-lite source file plus emission-time
/// ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoTest {
    /// Position in the corpus enumeration.
    pub index: u64,
    /// Stable display name: `gotest/<index>/<template>/<racy|clean>`.
    pub name: String,
    /// The complete `package main` source.
    pub source: String,
    /// Emission-time ground truth: does the test contain a race?
    pub expected_racy: bool,
}

// The shared copy is `grs_obs::splitmix64`; this crate has no `grs-obs`
// edge, and five lines do not justify adding one.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The deterministic per-test emitter.
///
/// # Example
///
/// ```
/// use grs_corpus::{GoTestGen, GoTestSpec};
///
/// let gen = GoTestGen::new(GoTestSpec::default_mix(), 7);
/// let t = gen.emit(42);
/// assert_eq!(t, gen.emit(42), "emission is a pure function of the index");
/// assert!(t.source.starts_with("package main"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GoTestGen {
    spec: GoTestSpec,
    seed: u64,
}

/// The racy template family (one structural race each).
const RACY_TEMPLATES: &[&str] = &["unsync_counter", "loop_capture", "map_fanout", "wg_unsync"];

/// The clean template family (same shapes, synchronized or privatized).
const CLEAN_TEMPLATES: &[&str] = &[
    "mutex_counter",
    "chan_pipeline",
    "privatized",
    "rwlock_readers",
    "sequential",
];

impl GoTestGen {
    /// A generator for `spec` under `seed`.
    #[must_use]
    pub fn new(spec: GoTestSpec, seed: u64) -> Self {
        GoTestGen { spec, seed }
    }

    /// The generator's spec.
    #[must_use]
    pub fn spec(&self) -> &GoTestSpec {
        &self.spec
    }

    /// The head of test `index`'s draw: whether it is racy and which
    /// template it uses, with the RNG positioned where the body's draws
    /// begin. [`GoTestGen::emit`] and [`GoTestGen::name`] both start here,
    /// so they cannot disagree.
    fn header(&self, index: u64) -> (StdRng, bool, &'static str) {
        let mut rng = StdRng::seed_from_u64(splitmix64(
            self.seed ^ splitmix64(index.wrapping_add(0xc0_4b0c)),
        ));
        let racy = (rng.gen_range(0..1000u32)) < self.spec.racy_per_mille;
        let template = if racy {
            RACY_TEMPLATES[rng.gen_range(0..RACY_TEMPLATES.len())]
        } else {
            CLEAN_TEMPLATES[rng.gen_range(0..CLEAN_TEMPLATES.len())]
        };
        (rng, racy, template)
    }

    /// The name [`GoTestGen::emit`]`(index)` carries —
    /// `gotest/<index>/<template>/<racy|clean>` — without building the
    /// source: a campaign names every unit after the run.
    #[must_use]
    pub fn name(&self, index: u64) -> String {
        let (_, racy, template) = self.header(index);
        test_name(index, template, racy)
    }

    /// Emits test `index`. Deterministic: depends only on
    /// `(spec, seed, index)` — never on emission order — which is what
    /// keeps campaign digests invariant across worker counts.
    #[must_use]
    pub fn emit(&self, index: u64) -> GoTest {
        let (mut rng, racy, template) = self.header(index);
        let mut body = String::new();
        let fillers = if self.spec.fillers_max == 0 {
            0
        } else {
            rng.gen_range(0..self.spec.fillers_max + 1)
        };
        for f in 0..fillers {
            push_filler(&mut body, &mut rng, f);
        }
        push_template(&mut body, template, &mut rng);
        let source = format!(
            "package main\n\nimport \"sync\"\n\nvar sink int\n\nfunc bump(v int) int {{\n\treturn v + 1\n}}\n\nfunc main() {{\n{body}}}\n",
        );
        GoTest {
            index,
            name: test_name(index, template, racy),
            source,
            expected_racy: racy,
        }
    }

    /// Emits tests `0..count` in order.
    pub fn iter(&self, count: u64) -> impl Iterator<Item = GoTest> + '_ {
        (0..count).map(|i| self.emit(i))
    }
}

fn test_name(index: u64, template: &str, racy: bool) -> String {
    format!(
        "gotest/{index:06}/{template}/{}",
        if racy { "racy" } else { "clean" }
    )
}

/// One self-contained sequential snippet — construct-density noise that
/// must parse, lower, and run but never races (everything is
/// goroutine-local or properly bracketed).
fn push_filler(body: &mut String, rng: &mut StdRng, tag: u32) {
    match rng.gen_range(0..6) {
        0 => {
            body.push_str(&format!(
                "\tvar fmu{tag} sync.Mutex\n\tfmu{tag}.Lock()\n\tsink = bump(sink)\n\tfmu{tag}.Unlock()\n"
            ));
        }
        1 => {
            body.push_str(&format!(
                "\tvar frw{tag} sync.RWMutex\n\tfrw{tag}.RLock()\n\tfx{tag} := sink\n\t_ = fx{tag}\n\tfrw{tag}.RUnlock()\n"
            ));
        }
        2 => {
            body.push_str(&format!(
                "\tfch{tag} := make(chan int, 1)\n\tfch{tag} <- {}\n\tfv{tag} := <-fch{tag}\n\t_ = fv{tag}\n",
                rng.gen_range(1..100)
            ));
        }
        3 => {
            body.push_str(&format!(
                "\tvar fwg{tag} sync.WaitGroup\n\tfwg{tag}.Add(1)\n\tfwg{tag}.Done()\n\tfwg{tag}.Wait()\n"
            ));
        }
        4 => {
            body.push_str(&format!(
                "\tfm{tag} := make(map[int]int)\n\tfm{tag}[{k}] = {v}\n\t_ = fm{tag}[{k}]\n",
                k = rng.gen_range(0..8),
                v = rng.gen_range(1..100)
            ));
        }
        _ => {
            body.push_str(&format!(
                "\tfa{tag} := {}\n\tfor fi{tag} := 0; fi{tag} < 3; fi{tag} = fi{tag} + 1 {{\n\t\tfa{tag} = fa{tag} + fi{tag}\n\t}}\n\tif fa{tag} > {} {{\n\t\tfa{tag} = fa{tag} - 1\n\t}}\n\t_ = fa{tag}\n",
                rng.gen_range(1..50),
                rng.gen_range(1..100)
            ));
        }
    }
}

/// The concurrency scenario proper. Racy templates keep their two
/// conflicting accesses structurally unordered (no sync edge between the
/// goroutines), so a happens-before detector flags them on every schedule.
fn push_template(body: &mut String, template: &str, rng: &mut StdRng) {
    let k = rng.gen_range(2..4u32); // goroutine fan-out
    match template {
        // ── racy ────────────────────────────────────────────────────────
        "unsync_counter" => {
            // K goroutines bump the shared global, joined by channel.
            body.push_str(&format!(
                "\tdone := make(chan bool, {k})\n\tfor i := 0; i < {k}; i = i + 1 {{\n\t\tgo func() {{\n\t\t\tsink = bump(sink)\n\t\t\tdone <- true\n\t\t}}()\n\t}}\n\tfor i := 0; i < {k}; i = i + 1 {{\n\t\t<-done\n\t}}\n"
            ));
        }
        "loop_capture" => {
            // The classic Listing 1: the loop variable is captured by
            // reference; its reads race the loop's writes.
            let (a, b, c) = (
                rng.gen_range(1..50),
                rng.gen_range(1..50),
                rng.gen_range(1..50),
            );
            body.push_str(&format!(
                "\tjobs := []int{{{a}, {b}, {c}}}\n\tdone := make(chan bool, 3)\n\tfor _, job := range jobs {{\n\t\tgo func() {{\n\t\t\tsink = sink + job\n\t\t\tdone <- true\n\t\t}}()\n\t}}\n\t<-done\n\t<-done\n\t<-done\n"
            ));
        }
        "map_fanout" => {
            // Concurrent writers on one map — Observation 4.
            body.push_str(&format!(
                "\tres := make(map[int]int)\n\tdone := make(chan bool, {k})\n\tfor i := 0; i < {k}; i = i + 1 {{\n\t\tgo func(key int) {{\n\t\t\tres[key] = key * 2\n\t\t\tdone <- true\n\t\t}}(i)\n\t}}\n\tfor i := 0; i < {k}; i = i + 1 {{\n\t\t<-done\n\t}}\n\t_ = len(res)\n"
            ));
        }
        "wg_unsync" => {
            // WaitGroup joins the goroutines but nothing orders the
            // increments against each other.
            body.push_str(&format!(
                "\tvar wg sync.WaitGroup\n\twg.Add({k})\n\tfor i := 0; i < {k}; i = i + 1 {{\n\t\tgo func() {{\n\t\t\tsink = sink + 1\n\t\t\twg.Done()\n\t\t}}()\n\t}}\n\twg.Wait()\n"
            ));
        }
        // ── clean ───────────────────────────────────────────────────────
        "mutex_counter" => {
            body.push_str(&format!(
                "\tvar mu sync.Mutex\n\tvar wg sync.WaitGroup\n\twg.Add({k})\n\tfor i := 0; i < {k}; i = i + 1 {{\n\t\tgo func() {{\n\t\t\tmu.Lock()\n\t\t\tsink = bump(sink)\n\t\t\tmu.Unlock()\n\t\t\twg.Done()\n\t\t}}()\n\t}}\n\twg.Wait()\n"
            ));
        }
        "chan_pipeline" => {
            // Results flow through the channel; the accumulator is only
            // ever touched by main.
            body.push_str(&format!(
                "\tout := make(chan int, {k})\n\tfor i := 0; i < {k}; i = i + 1 {{\n\t\tgo func(v int) {{\n\t\t\tout <- bump(v)\n\t\t}}(i)\n\t}}\n\ttotal := 0\n\tfor i := 0; i < {k}; i = i + 1 {{\n\t\ttotal = total + <-out\n\t}}\n\t_ = total\n"
            ));
        }
        "privatized" => {
            // The Listing 1 fix: the loop variable is passed by value.
            let (a, b, c) = (
                rng.gen_range(1..50),
                rng.gen_range(1..50),
                rng.gen_range(1..50),
            );
            body.push_str(&format!(
                "\tjobs := []int{{{a}, {b}, {c}}}\n\tdone := make(chan int, 3)\n\tfor _, job := range jobs {{\n\t\tgo func(j int) {{\n\t\t\tj = bump(j)\n\t\t\tdone <- j\n\t\t}}(job)\n\t}}\n\tacc := 0\n\tacc = acc + <-done\n\tacc = acc + <-done\n\tacc = acc + <-done\n\t_ = acc\n"
            ));
        }
        "rwlock_readers" => {
            // One writer under Lock, K readers under RLock.
            body.push_str(&format!(
                "\tvar rw sync.RWMutex\n\tvar wg sync.WaitGroup\n\twg.Add({kp1})\n\tgo func() {{\n\t\trw.Lock()\n\t\tsink = sink + 1\n\t\trw.Unlock()\n\t\twg.Done()\n\t}}()\n\tfor i := 0; i < {k}; i = i + 1 {{\n\t\tgo func() {{\n\t\t\trw.RLock()\n\t\t\tr := sink\n\t\t\t_ = r\n\t\t\trw.RUnlock()\n\t\t\twg.Done()\n\t\t}}()\n\t}}\n\twg.Wait()\n",
                kp1 = k + 1
            ));
        }
        "sequential" => {
            // No concurrency at all: a map/slice/helper workout.
            let n = rng.gen_range(2..5);
            body.push_str(&format!(
                "\tm := make(map[int]int)\n\tfor i := 0; i < {n}; i = i + 1 {{\n\t\tm[i] = bump(i)\n\t}}\n\tvals := []int{{1, 2, 3}}\n\ttotal := 0\n\tfor _, v := range vals {{\n\t\ttotal = total + v + m[0]\n\t}}\n\tsink = sink + total\n"
            ));
        }
        other => unreachable!("unknown template {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_is_deterministic_and_index_sensitive() {
        let gen = GoTestGen::new(GoTestSpec::default_mix(), 9);
        for i in 0..64 {
            assert_eq!(gen.emit(i), gen.emit(i));
        }
        assert_ne!(gen.emit(0).source, gen.emit(1).source);
        let other_seed = GoTestGen::new(GoTestSpec::default_mix(), 10);
        assert_ne!(
            (0..32).map(|i| gen.emit(i).source).collect::<Vec<_>>(),
            (0..32).map(|i| other_seed.emit(i).source).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn every_emitted_test_parses_under_golite() {
        let gen = GoTestGen::new(GoTestSpec::default_mix().fillers_max(3), 4);
        for t in gen.iter(256) {
            grs_golite::scan_source(&t.source)
                .unwrap_or_else(|e| panic!("{}: generated test does not parse: {e}", t.name));
        }
    }

    #[test]
    fn racy_fraction_tracks_the_spec() {
        let gen = GoTestGen::new(GoTestSpec::default_mix().racy_per_mille(300), 1);
        let racy = gen.iter(2000).filter(|t| t.expected_racy).count();
        assert!(
            (450..750).contains(&racy),
            "racy count {racy} far from 600/2000"
        );
        let none = GoTestGen::new(GoTestSpec::default_mix().racy_per_mille(0), 1);
        assert_eq!(none.iter(200).filter(|t| t.expected_racy).count(), 0);
    }

    #[test]
    fn both_template_families_appear() {
        let gen = GoTestGen::new(GoTestSpec::default_mix().racy_per_mille(500), 2);
        let names: Vec<String> = gen.iter(400).map(|t| t.name).collect();
        for template in RACY_TEMPLATES.iter().chain(CLEAN_TEMPLATES) {
            assert!(
                names.iter().any(|n| n.contains(template)),
                "template {template} never emitted in 400 tests"
            );
        }
    }
}
