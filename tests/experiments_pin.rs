//! The rendered Tables 2 and 3, the static-vs-dynamic agreement matrix and
//! the triage outcome, pinned byte for byte. Each reruns the same seeds over
//! the same programs, so any change to how a schedule is run, deduplicated
//! or given a representative shows up here as a diff.

use grs::experiments::{static_dynamic_agreement, table2, table3, TallyConfig};
use grs::fleet::{run_triage, TriageConfig};

const PINNED: &str = include_str!("data/experiments.txt");

#[test]
fn experiment_outputs_reproduce_the_pin() {
    let wrapped = TriageConfig {
        seeds_per_unit: 3,
        base_seed: u64::MAX,
    };
    let rendered = [
        table2(&TallyConfig::quick(5)).render(),
        table3(&TallyConfig::quick(6)).render(),
        static_dynamic_agreement(60, 9).render(),
        format!("{:?}\n", run_triage(&TriageConfig::default())),
        format!("{:?}\n", run_triage(&wrapped)),
    ]
    .concat();
    assert_eq!(rendered, PINNED);
}
