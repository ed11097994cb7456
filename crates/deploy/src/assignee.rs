//! §3.3.2's assignee heuristic.
//!
//! Without an automatically derived root cause, the candidate assignees are
//! limited to the authors of the *root* and *leaf* frames of the two call
//! chains. The paper chooses the root owners — developers with a stake in
//! the functional correctness of the whole flow — then corrects for
//! organizational churn: frequent recent modifiers are preferred, team
//! ownership metadata is consulted, and departed developers are skipped.
//! Crucially, the decision ships with a log of *why* the tool chose that
//! person, which the paper found materially improved developer acceptance.

use std::collections::HashMap;

use grs_detector::RaceReport;

/// Per-author statistics for one function's history.
#[derive(Debug, Clone)]
pub struct AuthorStat {
    /// Author login.
    pub author: String,
    /// Number of commits touching the function.
    pub commits: u32,
    /// Whether the author is still in the organization.
    pub present: bool,
}

/// Ownership metadata the heuristic consults: per-function author history
/// plus optional team ownership.
#[derive(Debug, Clone, Default)]
pub struct OwnerDb {
    authors: HashMap<String, Vec<AuthorStat>>,
    teams: HashMap<String, String>,
}

impl OwnerDb {
    /// An empty database (the heuristic then falls back to "unassigned").
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an author having modified `func` in `commits` commits.
    pub fn add_author(&mut self, func: &str, author: &str, commits: u32, present: bool) {
        self.authors
            .entry(func.to_string())
            .or_default()
            .push(AuthorStat {
                author: author.to_string(),
                commits,
                present,
            });
    }

    /// Attaches team ownership metadata to `func`.
    pub fn set_team(&mut self, func: &str, team: &str) {
        self.teams.insert(func.to_string(), team.to_string());
    }

    fn best_present_author(&self, func: &str) -> Option<&AuthorStat> {
        self.authors
            .get(func)?
            .iter()
            .filter(|a| a.present)
            .max_by_key(|a| a.commits)
    }

    fn team(&self, func: &str) -> Option<&str> {
        self.teams.get(func).map(String::as_str)
    }
}

/// The heuristic's decision, including its reasoning log.
#[derive(Debug, Clone)]
pub struct AssigneeDecision {
    /// Chosen assignee (a developer login or a team name), if any.
    pub assignee: Option<String>,
    /// Every candidate considered, in preference order.
    pub candidates: Vec<String>,
    /// Human-readable log of how the decision was reached (§3.3.2: "we
    /// found... attaching a log of how our algorithm arrived at the choice
    /// ... was useful to the developers").
    pub rationale: Vec<String>,
}

/// Chooses an assignee for a race report.
///
/// Preference order, per the paper:
/// 1. the most frequent *present* modifier of either stack's **root**
///    function,
/// 2. team ownership metadata on a root function,
/// 3. the most frequent present modifier of a **leaf** function (the actual
///    racing accesses),
/// 4. unassigned (triage queue).
///
/// # Example
///
/// ```
/// use grs_deploy::{determine_assignee, OwnerDb};
/// # use grs_detector::DetectorChoice;
/// # use grs_patterns::find;
/// # use grs_runtime::RunConfig;
/// let mut db = OwnerDb::new();
/// // The racy accesses sit under the "handler" goroutine's root frame.
/// db.add_author("handler", "alice", 12, true);
/// db.add_author("handler", "bob", 40, false); // departed
/// # let program = find("missing_lock").unwrap().racy_program();
/// # let report = &(1..=40)
/// #     .find_map(|seed| DetectorChoice::Hybrid.run(&program, RunConfig::with_seed(seed)).1.pop())
/// #     .expect("missing_lock races");
/// let decision = determine_assignee(report, &db);
/// assert_eq!(decision.assignee.as_deref(), Some("alice"));
/// assert!(!decision.rationale.is_empty());
/// ```
#[must_use]
pub fn determine_assignee(report: &RaceReport, db: &OwnerDb) -> AssigneeDecision {
    let (s1, s2) = report.stacks();
    let mut rationale = Vec::new();
    let mut candidates = Vec::new();

    let roots: Vec<&str> = [s1.root(), s2.root()]
        .into_iter()
        .flatten()
        .map(|f| f.func.as_ref())
        .collect();
    let leaves: Vec<&str> = [s1.leaf(), s2.leaf()]
        .into_iter()
        .flatten()
        .map(|f| f.func.as_ref())
        .collect();

    rationale.push(format!(
        "candidate functions: roots {roots:?} (preferred: stake in end-to-end \
         correctness), leaves {leaves:?}"
    ));

    // 1. Root authors.
    let mut best: Option<(&AuthorStat, &str)> = None;
    for func in &roots {
        if let Some(stat) = db.best_present_author(func) {
            candidates.push(stat.author.clone());
            if best.is_none_or(|(b, _)| stat.commits > b.commits) {
                best = Some((stat, func));
            }
        } else if let Some(all) = db.authors.get(*func) {
            for a in all {
                if !a.present {
                    rationale.push(format!(
                        "skipped {} (author of {func}): no longer in the organization",
                        a.author
                    ));
                }
            }
        }
    }
    if let Some((stat, func)) = best {
        rationale.push(format!(
            "chose {}: most frequent present modifier of root function {func} \
             ({} commits)",
            stat.author, stat.commits
        ));
        return AssigneeDecision {
            assignee: Some(stat.author.clone()),
            candidates,
            rationale,
        };
    }

    // 2. Team metadata on a root.
    for func in &roots {
        if let Some(team) = db.team(func) {
            rationale.push(format!(
                "no present root author; assigned owning team {team} of {func} \
                 from ownership metadata"
            ));
            candidates.push(team.to_string());
            return AssigneeDecision {
                assignee: Some(team.to_string()),
                candidates,
                rationale,
            };
        }
    }

    // 3. Leaf authors.
    let mut best: Option<(&AuthorStat, &str)> = None;
    for func in &leaves {
        if let Some(stat) = db.best_present_author(func) {
            candidates.push(stat.author.clone());
            if best.is_none_or(|(b, _)| stat.commits > b.commits) {
                best = Some((stat, func));
            }
        }
    }
    if let Some((stat, func)) = best {
        rationale.push(format!(
            "fell back to leaf function {func}: {} ({} commits) owns the racing \
             access",
            stat.author, stat.commits
        ));
        return AssigneeDecision {
            assignee: Some(stat.author.clone()),
            candidates,
            rationale,
        };
    }

    rationale.push("no ownership signal found; routing to the triage queue".to_string());
    AssigneeDecision {
        assignee: None,
        candidates,
        rationale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_clock::Lockset;
    use grs_detector::{DetectorKind, RaceAccess};
    use grs_runtime::{AccessKind, Addr, Frame, Gid, Stack};
    use std::sync::Arc;

    fn report(root1: &str, leaf1: &str, root2: &str, leaf2: &str) -> RaceReport {
        let mk = |root: &str, leaf: &str, gid: u32, kind: AccessKind| RaceAccess {
            gid: Gid(gid),
            kind,
            stack: Stack::from_frames(vec![
                Frame {
                    func: Arc::from(root),
                    call_line: 1,
                },
                Frame {
                    func: Arc::from(leaf),
                    call_line: 2,
                },
            ]),
            file: Arc::from("x.go"),
            line: 1,
            locks_held: Lockset::new(),
        };
        RaceReport {
            addr: Addr(1),
            object: Arc::from("v"),
            prior: mk(root1, leaf1, 0, AccessKind::Write),
            current: mk(root2, leaf2, 1, AccessKind::Read),
            detector: DetectorKind::Tsan,
            program: None,
            repro_seed: None,
            repro: None,
        }
    }

    #[test]
    fn prefers_root_author() {
        let mut db = OwnerDb::new();
        db.add_author("HandleRequest", "alice", 10, true);
        db.add_author("processJob", "carol", 99, true); // leaf — ignored
        let d = determine_assignee(&report("HandleRequest", "processJob", "Worker", "write"), &db);
        assert_eq!(d.assignee.as_deref(), Some("alice"));
        assert!(d.rationale.iter().any(|r| r.contains("root function")));
    }

    #[test]
    fn skips_departed_authors() {
        let mut db = OwnerDb::new();
        db.add_author("Main", "ghost", 100, false);
        db.add_author("Main", "alice", 3, true);
        let d = determine_assignee(&report("Main", "l1", "Main", "l2"), &db);
        assert_eq!(d.assignee.as_deref(), Some("alice"));
    }

    #[test]
    fn falls_back_to_team_metadata() {
        let mut db = OwnerDb::new();
        db.set_team("Main", "payments-platform");
        let d = determine_assignee(&report("Main", "l1", "Main", "l2"), &db);
        assert_eq!(d.assignee.as_deref(), Some("payments-platform"));
        assert!(d.rationale.iter().any(|r| r.contains("team")));
    }

    #[test]
    fn falls_back_to_leaf_author() {
        let mut db = OwnerDb::new();
        db.add_author("leafFn", "dave", 5, true);
        let d = determine_assignee(&report("Main", "leafFn", "Main", "other"), &db);
        assert_eq!(d.assignee.as_deref(), Some("dave"));
        assert!(d.rationale.iter().any(|r| r.contains("leaf")));
    }

    #[test]
    fn unassigned_when_no_signal() {
        let d = determine_assignee(&report("A", "b", "C", "d"), &OwnerDb::new());
        assert!(d.assignee.is_none());
        assert!(d.rationale.iter().any(|r| r.contains("triage")));
    }

    #[test]
    fn higher_commit_count_wins_across_roots() {
        let mut db = OwnerDb::new();
        db.add_author("RootOne", "alice", 3, true);
        db.add_author("RootTwo", "bob", 30, true);
        let d = determine_assignee(&report("RootOne", "l", "RootTwo", "l"), &db);
        assert_eq!(d.assignee.as_deref(), Some("bob"));
        assert!(d.candidates.contains(&"alice".to_string()));
    }
}
