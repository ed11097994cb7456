//! The campaign engine's own tests.

use grs_deploy::FileOutcome;

use super::*;

fn tiny_units() -> Vec<CampaignUnit> {
    pattern_suite(true)
        .into_iter()
        .filter(|u| u.name.starts_with("loop_index_capture") || u.name.starts_with("missing_lock"))
        .collect()
}

#[test]
fn matrix_enumeration_is_dense_and_ordered() {
    let c = Campaign::over_units(
        CampaignConfig::new().seeds_per_unit(3),
        tiny_units(),
    );
    let specs = c.specs();
    assert_eq!(specs.len(), c.matrix_len());
    for (i, s) in specs.iter().enumerate() {
        assert_eq!(s.index, i);
        // The arithmetic recovery is the enumeration.
        assert_eq!(*s, c.spec_at(i));
    }
}

#[test]
fn racy_units_detected_fixed_units_clean() {
    let c = Campaign::over_units(
        CampaignConfig::new().seeds_per_unit(12),
        tiny_units(),
    );
    let r = c.run();
    for i in 0..c.unit_count() {
        let unit = c.unit(i).expect("pattern units always build");
        let unit_racy = r
            .records
            .iter()
            .filter(|rec| *rec.unit_name == unit.name)
            .any(|rec| rec.racy);
        assert_eq!(
            Some(unit_racy),
            unit.expected_racy,
            "unit {}",
            unit.name
        );
    }
    assert!(r.detection_rate() > 0.0);
    assert!(!r.batch.is_empty());
}

#[test]
fn corpus_suite_compiles_and_campaigns() {
    let c = Campaign::over_units(
        CampaignConfig::new().seeds_per_unit(6),
        corpus_suite(),
    );
    let r = c.run();
    assert_eq!(r.total_runs(), c.matrix_len());
    assert_eq!(r.units_skipped, 0);
    // The racy Go sources must be caught; fixed must stay silent.
    for i in 0..c.unit_count() {
        let unit = c.unit(i).expect("embedded snippets always build");
        if unit.expected_racy == Some(false) {
            assert!(
                r.records
                    .iter()
                    .filter(|rec| *rec.unit_name == unit.name)
                    .all(|rec| !rec.racy),
                "false positive in {}",
                unit.name
            );
        }
    }
    assert!(r.racy_runs() > 0);
}

#[test]
fn filing_the_batch_into_the_service_dedups_across_days() {
    let c = Campaign::over_units(
        CampaignConfig::new().seeds_per_unit(6),
        tiny_units(),
    );
    let r = c.run();
    let service = grs_deploy::IntakeService::builder().workers(1).start().unwrap();
    let outcomes = r.file_into_service(&service, 0).unwrap();
    assert_eq!(outcomes.len(), r.batch.len());
    assert!(outcomes
        .iter()
        .all(|(_, o)| matches!(o, FileOutcome::Filed { .. })));
    // Day two: all duplicates.
    let again = r.file_into_service(&service, 1).unwrap();
    assert!(again.iter().all(|(_, o)| *o == FileOutcome::Duplicate));
}

/// A detector named twice is run once per execution and its record
/// repeated. Captured at 50aa005, where each position ran its own
/// execution.
const PINNED_REPEATED_DIGEST64: u64 = 0xe9eb_5f24_415c_ab79;
const PINNED_REPEATED_BATCH: [u64; 2] = [0x209f_fa74_4cf9_754b, 0xa7e3_3c98_7318_bb65];

#[test]
fn a_repeated_detector_reproduces_its_separate_runs() {
    let config = CampaignConfig::new().seeds_per_unit(4).workers(1).detectors(vec![
        DetectorChoice::Hybrid,
        DetectorChoice::FastTrack,
        DetectorChoice::Hybrid,
    ]);
    let c = Campaign::over_units(config, tiny_units());
    let r = c.run();
    assert_eq!(r.total_runs(), c.matrix_len());
    assert_eq!(r.digest64(), PINNED_REPEATED_DIGEST64);
    let batch: Vec<u64> = r.batch.fingerprints().iter().map(|fp| fp.0).collect();
    assert_eq!(batch, PINNED_REPEATED_BATCH);
    let view = |x: &RunRecord| (x.fingerprints.clone(), x.events, x.peak_shadow_words);
    for triple in r.records.chunks(3) {
        assert_eq!(view(&triple[0]), view(&triple[2]), "{:?}", triple[0].spec);
    }
}

/// A source no campaign may build from.
#[derive(Debug)]
struct Unbuildable;

impl UnitSource for Unbuildable {
    fn len(&self) -> usize {
        4
    }

    fn name(&self, unit: usize) -> String {
        format!("unbuildable/{unit}")
    }

    fn build(&self, unit: usize) -> Result<CampaignUnit, UnitError> {
        panic!("unit {unit} built by a campaign with no detector")
    }
}

#[test]
fn no_detector_means_no_execution() {
    for workers in [1, 2] {
        let config = CampaignConfig::new()
            .workers(workers)
            .detectors(Vec::new());
        let r = Campaign::over_source(config, Arc::new(Unbuildable)).run();
        assert_eq!(r.total_runs(), 0, "{workers} workers");
        assert_eq!(r.units_skipped, 0, "{workers} workers");
        assert!(r.batch.is_empty(), "{workers} workers");
    }
}

#[test]
fn exec_specs_tile_the_run_matrix() {
    let config = CampaignConfig::new()
        .seeds_per_unit(3)
        .detectors(DetectorChoice::all().to_vec())
        .strategies(vec![Strategy::Random, Strategy::RoundRobin]);
    let c = Campaign::over_units(config, tiny_units());
    let specs = c.specs();
    let execs = c.exec_specs();
    assert_eq!(execs.len() * 3, specs.len());
    for e in &execs {
        for (pos, &d) in c.config().detectors.iter().enumerate() {
            let s = specs[e.base_index + pos];
            assert_eq!(s.unit, e.unit);
            assert_eq!(s.seed, e.seed);
            assert_eq!(s.strategy, e.strategy);
            assert_eq!(s.detector, d);
        }
    }
}

#[test]
fn convergence_is_monotone_and_bounded() {
    let c = Campaign::over_units(CampaignConfig::new(), tiny_units());
    let r = c.run();
    let conv = r.convergence();
    assert!(!conv.is_empty());
    assert!(conv.len() <= MAX_CONVERGENCE_POINTS);
    for w in conv.windows(2) {
        assert!(w[0].0 < w[1].0);
        assert!(w[0].1 <= w[1].1);
    }
    // The final point always covers the whole campaign.
    assert_eq!(*conv.last().unwrap(), (r.total_runs(), r.batch.len()));
}

/// §3.2–3.3: a filed task must be reproducible. Every report in the
/// batch carries a repro artifact, and re-running its unit under that
/// artifact's seed and strategy re-triggers the race.
#[test]
fn batch_artifacts_reproduce() {
    let c = Campaign::over_units(
        CampaignConfig::new().seeds_per_unit(16),
        tiny_units(),
    );
    let unit_by_name = |name: &str| {
        (0..c.unit_count())
            .map(|i| c.unit(i).unwrap())
            .find(|u| u.name == name)
            .expect("batch report names a campaign unit")
    };
    let r = c.run();
    assert!(!r.batch.is_empty());
    for (_, rep) in r.batch.iter() {
        let artifact = rep.repro.as_ref().expect("campaign reports carry repro");
        let unit = unit_by_name(rep.program.as_deref().expect("program set"));
        let cfg = c.run_config(artifact.seed, artifact.strategy);
        let (_, reports) = DetectorChoice::Hybrid.run(&unit.program, cfg);
        assert!(
            reports.iter().any(|rr| rr.site_key() == rep.site_key()),
            "replaying {artifact} of {} did not re-trigger the race",
            unit.name
        );
    }
}

/// A source whose odd units refuse to lower: the campaign must skip
/// them (counted, first reasons kept), run everything else, and stay
/// deterministic across worker counts.
#[derive(Debug)]
struct HalfBroken {
    inner: UnitList,
}

impl UnitSource for HalfBroken {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn name(&self, unit: usize) -> String {
        self.inner.name(unit)
    }

    fn build(&self, unit: usize) -> Result<CampaignUnit, UnitError> {
        if unit % 2 == 1 {
            return Err(UnitError {
                unit,
                name: self.inner.name(unit),
                error: "parse: synthetic failure".to_string(),
            });
        }
        self.inner.build(unit)
    }
}

#[test]
fn broken_units_are_skipped_not_fatal() {
    let source = std::sync::Arc::new(HalfBroken {
        inner: UnitList::new(tiny_units()),
    });
    let units = source.len();
    let c = Campaign::over_source(
        CampaignConfig::new().seeds_per_unit(3).shards(3),
        source,
    );
    let serial = c.with_config(c.config().clone().workers(1)).run();
    let skipped_units = units / 2;
    assert_eq!(serial.units_skipped, skipped_units);
    assert_eq!(serial.skip_reasons.len(), skipped_units.min(MAX_SKIP_REASONS));
    assert!(serial.skip_reasons[0].error.contains("synthetic failure"));
    // Every spec of a broken unit is skipped; every other spec ran.
    let specs_per_unit = c.matrix_len() / units;
    assert_eq!(
        serial.total_runs(),
        (units - skipped_units) * specs_per_unit
    );
    assert_eq!(
        serial.obs.snapshot.counter("campaign.skipped_runs"),
        (skipped_units * specs_per_unit) as u64
    );
    assert!(serial
        .records
        .iter()
        .all(|r| r.spec.unit % 2 == 0), "odd units must not produce records");
}

/// The determinism contract, every cell: the campaign's whole
/// deterministic output — records, digest, dedup batch and its
/// representatives, skip accounting and reasons, the stable obs
/// section — is the one-worker output at every worker count. Half the
/// units refuse to lower, more of them than [`MAX_SKIP_REASONS`], so
/// which reasons the cap keeps is exercised in every cell too.
#[test]
fn campaign_is_worker_count_invariant() {
    let units: Vec<CampaignUnit> = (0..10).flat_map(|_| tiny_units()).collect();
    let source = std::sync::Arc::new(HalfBroken {
        inner: UnitList::new(units),
    });
    let config = CampaignConfig::new()
        .seeds_per_unit(4)
        .shards(4)
        .detectors(DetectorChoice::all().to_vec());
    let c = Campaign::over_source(config, source);
    // Everything about a record but its placement and timing.
    let records = |r: &CampaignResult| -> Vec<_> {
        r.records
            .iter()
            .map(|x| {
                (
                    x.spec,
                    x.unit_name.clone(),
                    x.racy,
                    x.fingerprints.clone(),
                    (x.steps, x.events, x.depot_stacks, x.peak_shadow_words, x.end),
                )
            })
            .collect()
    };
    let representatives = |r: &CampaignResult| -> Vec<_> {
        r.batch
            .iter()
            .map(|(fp, rep)| (fp, rep.repro.clone()))
            .collect()
    };
    let one = c.with_config(c.config().clone().workers(1)).run();
    assert_eq!(one.workers, 1);
    assert!(one.units_skipped > MAX_SKIP_REASONS && !one.batch.is_empty());
    let first_broken: Vec<usize> = (0..MAX_SKIP_REASONS).map(|k| 2 * k + 1).collect();
    let kept: Vec<usize> = one.skip_reasons.iter().map(|e| e.unit).collect();
    assert_eq!(kept, first_broken, "the lowest-numbered failures, in unit order");
    for workers in [2, 4, 8] {
        let cell = format!("{workers} workers");
        let par = c.with_config(c.config().clone().workers(workers)).run();
        assert!(par.workers > 1, "{cell}");
        assert_eq!(records(&par), records(&one), "{cell}");
        assert_eq!(par.digest64(), one.digest64(), "{cell}");
        assert_eq!(par.batch.raw_reports(), one.batch.raw_reports(), "{cell}");
        assert_eq!(representatives(&par), representatives(&one), "{cell}");
        assert_eq!(par.units_skipped, one.units_skipped, "{cell}");
        assert_eq!(par.skip_reasons, one.skip_reasons, "{cell}");
        assert_eq!(
            par.obs.snapshot.counter("campaign.skipped_runs"),
            one.obs.snapshot.counter("campaign.skipped_runs"),
            "{cell}"
        );
        assert_eq!(par.obs.metrics_json(), one.obs.metrics_json(), "{cell}");
        assert_eq!(
            par.obs.deterministic_digest(),
            one.obs.deterministic_digest(),
            "{cell}"
        );
    }
}

#[test]
fn generated_go_corpus_campaigns_lazily_and_deterministically() {
    use crate::source::GoCorpusSource;
    use grs_corpus::GoTestSpec;

    // A source-level campaign straight from the generator: no unit is
    // materialized up front, ground truth comes from emission.
    let source = std::sync::Arc::new(GoCorpusSource::new(
        GoTestSpec::default_mix().racy_per_mille(400),
        11,
        24,
    ));
    let c = Campaign::over_source(
        CampaignConfig::new().seeds_per_unit(2).shards(4),
        source.clone(),
    );
    let serial = c.with_config(c.config().clone().workers(1)).run();
    assert_eq!(serial.units_skipped, 0, "{:?}", serial.skip_reasons);
    assert_eq!(serial.total_runs(), c.matrix_len());
    // Expected-racy units must be detected (the racy templates are
    // schedule-independent); clean units must stay silent.
    for i in 0..c.unit_count() {
        let unit = c.unit(i).unwrap();
        let unit_racy = serial
            .records
            .iter()
            .filter(|r| *r.unit_name == unit.name)
            .any(|r| r.racy);
        assert_eq!(Some(unit_racy), unit.expected_racy, "unit {}", unit.name);
    }
    for workers in [2, 4, 8] {
        let par = c.with_config(c.config().clone().workers(workers)).run();
        assert_eq!(par.digest64(), serial.digest64());
        assert_eq!(par.deterministic_digest(), serial.deterministic_digest());
        assert_eq!(par.batch.fingerprints(), serial.batch.fingerprints());
    }
}

/// A [`HalfBroken`] source that counts its builds.
#[derive(Debug)]
struct Counting {
    inner: HalfBroken,
    builds: AtomicUsize,
}

impl UnitSource for Counting {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn name(&self, unit: usize) -> String {
        self.inner.name(unit)
    }

    fn build(&self, unit: usize) -> Result<CampaignUnit, UnitError> {
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.inner.build(unit)
    }
}

/// A worker claims a whole unit: every unit is built exactly once,
/// broken ones included, however many seeds and strategies it runs
/// under and however many workers share the campaign — and no more
/// workers run than there are units.
#[test]
fn each_unit_is_built_exactly_once() {
    let config = CampaignConfig::new()
        .seeds_per_unit(3)
        .strategies(vec![Strategy::Random, Strategy::RoundRobin]);
    for workers in [1, 2, 4, 8] {
        let source = Arc::new(Counting {
            inner: HalfBroken {
                inner: UnitList::new(tiny_units()),
            },
            builds: AtomicUsize::new(0),
        });
        let units = source.len();
        let c = Campaign::over_source(config.clone().workers(workers), source.clone());
        let r = c.run();
        assert_eq!(source.builds.load(Ordering::Relaxed), units, "{workers} workers");
        assert_eq!(r.workers, workers.min(units), "{workers} workers");
        assert_eq!(r.units_skipped, units / 2, "{workers} workers");
    }
}
