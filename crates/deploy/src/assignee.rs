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

/// The heuristic's decision. Its reasons are kept as data — the functions
/// considered, the departed authors passed over, the rule that chose — and
/// turned into text only by [`AssigneeDecision::rationale`], so filing a
/// report formats nothing.
#[derive(Debug, Clone)]
pub struct AssigneeDecision<'a> {
    /// Chosen assignee (a developer login or a team name), if any.
    pub assignee: Option<String>,
    roots: Vec<&'a str>,
    leaves: Vec<&'a str>,
    /// `(author, root function)` for each departed author passed over.
    skipped: Vec<(&'a str, &'a str)>,
    basis: Basis<'a>,
}

/// Which rule of the preference order chose, and on what evidence.
#[derive(Debug, Clone, Copy)]
enum Basis<'a> {
    /// The most frequent present modifier of this root function.
    Root(&'a AuthorStat, &'a str),
    /// The owning team of this root function.
    Team(&'a str, &'a str),
    /// The most frequent present modifier of this leaf function.
    Leaf(&'a AuthorStat, &'a str),
    Unassigned,
}

impl AssigneeDecision<'_> {
    /// Human-readable log of how the decision was reached, one line per
    /// step (§3.3.2: "we found... attaching a log of how our algorithm
    /// arrived at the choice ... was useful to the developers").
    #[must_use]
    pub fn rationale(&self) -> Vec<String> {
        let (roots, leaves) = (&self.roots, &self.leaves);
        let mut rationale = vec![format!(
            "candidate functions: roots {roots:?} (preferred: stake in end-to-end \
             correctness), leaves {leaves:?}"
        )];
        rationale.extend(self.skipped.iter().map(|(author, func)| {
            format!("skipped {author} (author of {func}): no longer in the organization")
        }));
        rationale.push(match self.basis {
            Basis::Root(stat, func) => format!(
                "chose {}: most frequent present modifier of root function {func} \
                 ({} commits)",
                stat.author, stat.commits
            ),
            Basis::Team(team, func) => format!(
                "no present root author; assigned owning team {team} of {func} \
                 from ownership metadata"
            ),
            Basis::Leaf(stat, func) => format!(
                "fell back to leaf function {func}: {} ({} commits) owns the racing \
                 access",
                stat.author, stat.commits
            ),
            Basis::Unassigned => "no ownership signal found; routing to the triage queue".into(),
        });
        rationale
    }
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
/// assert!(!decision.rationale().is_empty());
/// ```
#[must_use]
pub fn determine_assignee<'a>(report: &'a RaceReport, db: &'a OwnerDb) -> AssigneeDecision<'a> {
    let (s1, s2) = report.stacks();
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
    let mut skipped = Vec::new();
    let basis = choose(&roots, &leaves, db, &mut skipped);
    let assignee = match basis {
        Basis::Root(stat, _) | Basis::Leaf(stat, _) => Some(stat.author.clone()),
        Basis::Team(team, _) => Some(team.to_string()),
        Basis::Unassigned => None,
    };
    AssigneeDecision {
        assignee,
        roots,
        leaves,
        skipped,
        basis,
    }
}

/// The preference order of [`determine_assignee`], noting in `skipped`
/// each departed author of a root function that has no present one.
fn choose<'a>(
    roots: &[&'a str],
    leaves: &[&'a str],
    db: &'a OwnerDb,
    skipped: &mut Vec<(&'a str, &'a str)>,
) -> Basis<'a> {
    // 1. Root authors.
    let mut best: Option<(&AuthorStat, &str)> = None;
    for &func in roots {
        if let Some(stat) = db.best_present_author(func) {
            if best.is_none_or(|(b, _)| stat.commits > b.commits) {
                best = Some((stat, func));
            }
        } else if let Some(all) = db.authors.get(func) {
            for a in all {
                if !a.present {
                    skipped.push((a.author.as_str(), func));
                }
            }
        }
    }
    if let Some((stat, func)) = best {
        return Basis::Root(stat, func);
    }

    // 2. Team metadata on a root.
    for &func in roots {
        if let Some(team) = db.team(func) {
            return Basis::Team(team, func);
        }
    }

    // 3. Leaf authors.
    let mut best: Option<(&AuthorStat, &str)> = None;
    for &func in leaves {
        if let Some(stat) = db.best_present_author(func) {
            if best.is_none_or(|(b, _)| stat.commits > b.commits) {
                best = Some((stat, func));
            }
        }
    }
    if let Some((stat, func)) = best {
        return Basis::Leaf(stat, func);
    }

    Basis::Unassigned
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_clock::Lockset;
    use grs_detector::{DetectorChoice, RaceAccess};
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
            detector: DetectorChoice::Hybrid,
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
        let r = report("HandleRequest", "processJob", "Worker", "write");
        let d = determine_assignee(&r, &db);
        assert_eq!(d.assignee.as_deref(), Some("alice"));
        assert!(d.rationale().iter().any(|r| r.contains("root function")));
    }

    #[test]
    fn skips_departed_authors() {
        let mut db = OwnerDb::new();
        db.add_author("Main", "ghost", 100, false);
        db.add_author("Main", "alice", 3, true);
        let r = report("Main", "l1", "Main", "l2");
        let d = determine_assignee(&r, &db);
        assert_eq!(d.assignee.as_deref(), Some("alice"));
    }

    #[test]
    fn falls_back_to_team_metadata() {
        let mut db = OwnerDb::new();
        db.set_team("Main", "payments-platform");
        let r = report("Main", "l1", "Main", "l2");
        let d = determine_assignee(&r, &db);
        assert_eq!(d.assignee.as_deref(), Some("payments-platform"));
        assert!(d.rationale().iter().any(|r| r.contains("team")));
    }

    #[test]
    fn falls_back_to_leaf_author() {
        let mut db = OwnerDb::new();
        db.add_author("leafFn", "dave", 5, true);
        let r = report("Main", "leafFn", "Main", "other");
        let d = determine_assignee(&r, &db);
        assert_eq!(d.assignee.as_deref(), Some("dave"));
        assert!(d.rationale().iter().any(|r| r.contains("leaf")));
    }

    #[test]
    fn unassigned_when_no_signal() {
        let r = report("A", "b", "C", "d");
        let db = OwnerDb::new();
        let d = determine_assignee(&r, &db);
        assert!(d.assignee.is_none());
        assert!(d.rationale().iter().any(|r| r.contains("triage")));
    }

    #[test]
    fn higher_commit_count_wins_across_roots() {
        let mut db = OwnerDb::new();
        db.add_author("RootOne", "alice", 3, true);
        db.add_author("RootTwo", "bob", 30, true);
        let r = report("RootOne", "l", "RootTwo", "l");
        let d = determine_assignee(&r, &db);
        assert_eq!(d.assignee.as_deref(), Some("bob"));
    }

    /// The rendered log of each branch, byte for byte what the heuristic
    /// wrote when it built the text while deciding.
    #[test]
    fn rationale_text_of_every_branch_is_pinned() {
        let mut db = OwnerDb::new();
        db.add_author("Main", "ghost", 100, false);
        db.add_author("Handler", "alice", 3, true);
        db.add_author("Handler", "bob", 1, true);
        let r = report("Main", "l1", "Handler", "l2");
        let d = determine_assignee(&r, &db);
        assert_eq!(
            d.rationale(),
            [
                r#"candidate functions: roots ["Main", "Handler"] (preferred: stake in end-to-end correctness), leaves ["l1", "l2"]"#,
                r#"skipped ghost (author of Main): no longer in the organization"#,
                r#"chose alice: most frequent present modifier of root function Handler (3 commits)"#,
            ]
        );

        let mut db = OwnerDb::new();
        db.set_team("Main", "payments-platform");
        let r = report("Main", "l1", "Main", "l2");
        let d = determine_assignee(&r, &db);
        assert_eq!(
            d.rationale(),
            [
                r#"candidate functions: roots ["Main", "Main"] (preferred: stake in end-to-end correctness), leaves ["l1", "l2"]"#,
                r#"no present root author; assigned owning team payments-platform of Main from ownership metadata"#,
            ]
        );

        let mut db = OwnerDb::new();
        db.add_author("leafFn", "dave", 5, true);
        let r = report("Main", "leafFn", "Main", "other");
        let d = determine_assignee(&r, &db);
        assert_eq!(
            d.rationale(),
            [
                r#"candidate functions: roots ["Main", "Main"] (preferred: stake in end-to-end correctness), leaves ["leafFn", "other"]"#,
                r#"fell back to leaf function leafFn: dave (5 commits) owns the racing access"#,
            ]
        );

        let r = report("A", "b", "C", "d");
        let db = OwnerDb::new();
        let d = determine_assignee(&r, &db);
        assert_eq!(
            d.rationale(),
            [
                r#"candidate functions: roots ["A", "C"] (preferred: stake in end-to-end correctness), leaves ["b", "d"]"#,
                r#"no ownership signal found; routing to the triage queue"#,
            ]
        );
    }
}
