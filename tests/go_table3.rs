//! Table 3's language-agnostic shapes as Go source, executed through the
//! interpreter: missing/partial locking, globals, statement order, and the
//! parallel-test idiom (§4.8) modeled as concurrently launched subtests.
//! The texts are the rendition set's; each row reads one verdict.

#[macro_use]
mod listing_runs;

use listing_runs::Text::{Fixed, Racy};

verdicts! {
    partial_locking_go_source: "partial_locking" Racy;
    consistent_locking_go_source_is_clean: "partial_locking" Fixed(0);
    global_counter_go_source: "global_counter" Racy;
    channel_pipeline_refactor_clean: "global_counter" Fixed(0);
    statement_order_go_source: "goroutine_before_init" Racy;
    parallel_subtests_go_source: "parallel_subtests" Racy;
    parallel_subtests_private_fixture_clean: "parallel_subtests" Fixed(0);
}
