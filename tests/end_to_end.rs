//! End-to-end integration: detector output flows through the deployment
//! intake service exactly as in the paper's Figure 2 architecture —
//! detect, deduplicate, assign, file, fix, re-detect.

use grs::deploy::{FileOutcome, IntakeService, OwnerDb};
use grs::detector::RaceReport;
use grs::fleet::{pattern_suite, Campaign, CampaignConfig, CampaignResult, CampaignUnit};
use grs::patterns;

/// A campaign of `seeds` seeds from `base_seed` over `units`.
fn campaign(units: Vec<CampaignUnit>, seeds: usize, base_seed: u64) -> CampaignResult {
    let config = CampaignConfig::new().seeds_per_unit(seeds).base_seed(base_seed);
    Campaign::over_units(config, units).run()
}

/// The first race a campaign over pattern `id`'s racy variant finds.
fn first_race(id: &str, seeds: usize) -> RaceReport {
    let pattern = patterns::find(id).expect("in corpus");
    let result = campaign(vec![CampaignUnit::pattern(&pattern, true)], seeds, 1);
    result.first_race(0).expect("detected").clone()
}

#[test]
fn daily_run_files_unique_tasks_for_the_whole_corpus() {
    // "Day 1": run the whole simulated test suite (every racy pattern),
    // submit all detected races.
    let mut owners = OwnerDb::new();
    owners.add_author("ProcessJobs", "alice", 20, true);
    owners.add_author("processOrders", "bob", 15, true);
    let service = IntakeService::builder().owners(owners).workers(1).start().unwrap();

    let all_races = campaign(pattern_suite(false), 50, 1).batch.into_reports();
    assert!(all_races.len() >= 20, "corpus produces many races");

    let submit_all = |day| -> Vec<FileOutcome> {
        all_races
            .iter()
            .map(|r| service.submit(r, day).unwrap())
            .collect()
    };
    let outcomes = submit_all(0);
    let filed_day1 = outcomes
        .iter()
        .filter(|o| matches!(o, FileOutcome::Filed { .. }))
        .count();
    assert!(filed_day1 >= 20);

    // "Day 2": the same races detected again (the daily rerun) must all be
    // suppressed as duplicates while their tasks are open.
    let outcomes2 = submit_all(1);
    assert!(
        outcomes2.iter().all(|o| *o == FileOutcome::Duplicate),
        "open tasks must suppress re-detections"
    );
    assert_eq!(service.with_tracker(|t| t.total_filed()), filed_day1);

    // Fix one task; day 3's rerun re-files exactly that race.
    let first_task = service.with_tracker(|t| t.tasks()[0].id);
    service.fix(first_task, 2, "alice", 1).unwrap();
    let outcomes3 = submit_all(3);
    let refiled = outcomes3
        .iter()
        .filter(|o| matches!(o, FileOutcome::Filed { .. }))
        .count();
    assert_eq!(refiled, 1, "only the fixed race re-files");
}

#[test]
fn fixed_corpus_files_nothing() {
    let fixed = pattern_suite(true).into_iter().filter(|u| u.expected_racy == Some(false));
    let races = campaign(fixed.collect(), 30, 1).batch.into_reports();
    let service = IntakeService::builder().workers(1).start().unwrap();
    for race in &races {
        service.submit(race, 0).unwrap();
    }
    assert_eq!(service.with_tracker(|t| t.total_filed()), 0);
}

#[test]
fn report_orientation_does_not_duplicate_tasks() {
    // Run the same pattern under many different seeds; different schedules
    // observe the two accesses in different orders and at different line
    // numbers of the harness, but §3.3.1's fingerprint collapses them.
    let pattern = patterns::find("missing_lock").expect("in corpus");
    let service = IntakeService::builder().workers(1).start().unwrap();
    let mut filed = 0;
    for base in [1_u64, 1000, 2000, 3000] {
        let unit = CampaignUnit::pattern(&pattern, true);
        let races = campaign(vec![unit], 40, base).batch.into_reports();
        for race in &races {
            if matches!(service.submit(race, 0).unwrap(), FileOutcome::Filed { .. }) {
                filed += 1;
            }
        }
    }
    assert_eq!(
        filed, 1,
        "one logical race across all seeds must file exactly one task"
    );
}

#[test]
fn assignee_rationale_reaches_the_task() {
    let race = &first_race("loop_index_capture", 60);

    let mut owners = OwnerDb::new();
    // The racy accesses' stacks are rooted at the main goroutine and the
    // spawned worker; credit an author on the main root.
    owners.add_author("main", "carol", 9, true);
    let decision = grs::deploy::determine_assignee(race, &owners);
    assert_eq!(decision.assignee.as_deref(), Some("carol"));
    assert!(decision
        .rationale()
        .iter()
        .any(|r| r.contains("root function")));
}

#[test]
fn filed_tasks_carry_working_repro_instructions() {
    // §3.4: the filed task contains "the necessary instructions to help the
    // developer reproduce the underlying race". Our analog is the scheduler
    // seed — and it must actually work: rerunning under the recorded seed
    // must deterministically re-expose the race.
    use grs::detector::DetectorChoice;
    use grs::runtime::RunConfig;

    let pattern = patterns::find("waitgroup_add_inside").expect("in corpus");
    let program = pattern.racy_program();
    let race = &first_race("waitgroup_add_inside", 120);
    let seed = race.repro_seed.expect("the campaign records the seed");

    // File it; the task records the repro instructions.
    let service = IntakeService::builder().workers(1).start().unwrap();
    let FileOutcome::Filed { task, .. } = service.submit(race, 0).unwrap() else {
        panic!("must file");
    };
    let recorded = service
        .with_tracker(|t| t.task(task).expect("filed").repro_seed)
        .expect("on task");
    assert_eq!(recorded, seed);

    // And the instructions WORK: the recorded seed replays the race.
    let (_, reports) = DetectorChoice::Hybrid.run(&program, RunConfig::with_seed(recorded));
    assert!(
        !reports.is_empty(),
        "repro seed {recorded} failed to replay the race"
    );
}
