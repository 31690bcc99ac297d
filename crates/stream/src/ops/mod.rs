//! The concrete stream operators of the partial/merge dataflow
//! (Figure 5 of the paper): scan → chunker → cloned partial k-means → tail,
//! the tail keeping one merge-reduce tree per cell — the paper's buffer,
//! whose reduction never fires, or in coreset mode a bounded one.
//!
//! Every operator is written as steps, not as a thread: `handle` consumes
//! one input message and hands its outputs to an `emit` callback (or, when
//! a step yields at most one message, returns it), and `finish` ends the
//! stream of an operator with cells to flush or a count to journal. The
//! executor chains the steps on the calling thread; only the partial step,
//! the one the paper clones, may run on a pool of worker threads instead.

pub mod chunker;
pub mod partial_op;
pub mod scan;
pub mod tail;

pub use chunker::{ChunkPolicy, ChunkerOp};
pub use partial_op::{chunk_seed, PartialKMeansOp};
pub use scan::ScanOp;
pub use tail::TailOp;

/// Instantiates [`tail`]'s protocol cases for one wire as `$id => $case`
/// pairs. The two modules below keep the test ids the cases have carried
/// since the classic and coreset tails were two operators.
#[cfg(test)]
macro_rules! tail_cases {
    ($acc:ident: $($id:ident => $case:ident),* $(,)?) => {
        mod tests {
            use crate::ops::tail::tests as cases;
            $(#[test]
            fn $id() {
                cases::$case(cases::$acc())
            })*
        }
    };
}

#[cfg(test)]
mod merge_op {
    tail_cases!(classic:
        merges_when_all_chunks_arrive => completes_cell_and_conserves_mass,
        plan_before_partials_also_completes => plan_before_partials_also_completes,
        arrival_order_does_not_change_result => arrival_order_does_not_change_result,
        interleaved_cells_emit_separately => interleaved_cells_emit_separately,
        empty_cell_plan_emits_nothing => empty_cell_plan_emits_nothing,
        incomplete_cell_is_an_error => incomplete_cell_is_an_error_under_strict_policy,
        end_of_stream_error_names_the_lowest_incomplete_cell
            => end_of_stream_error_names_the_lowest_incomplete_cell,
        duplicate_chunk_is_an_error => duplicate_chunk_is_an_error,
        duplicate_between_lost_and_partial_is_an_error
            => duplicate_between_lost_and_partial_is_an_error,
        lost_chunk_completes_cell_as_degraded => lost_chunk_completes_cell_as_degraded,
        lost_chunk_under_strict_policy_is_an_error => lost_chunk_under_strict_policy_is_an_error,
        fully_lost_cell_emits_nothing_but_counts_degraded
            => fully_lost_cell_emits_nothing_but_counts_degraded,
        incomplete_cell_merges_degraded_under_tolerant_policy
            => incomplete_cell_answers_degraded_under_tolerant_policy,
        cell_lost_without_a_chunk_message_closes_with_one_lost_chunk
            => cell_lost_without_a_chunk_message_closes_with_one_lost_chunk,
        scan_lost_cell_is_journaled_not_dropped => scan_lost_cell_is_journaled_not_dropped,
        cell_without_a_plan_expects_what_arrived => cell_without_a_plan_expects_what_arrived,
    );
}

#[cfg(test)]
mod coreset_op {
    tail_cases!(tree:
        completes_cell_and_conserves_mass => completes_cell_and_conserves_mass,
        plan_before_partials_also_completes => plan_before_partials_also_completes,
        arrival_order_does_not_change_result => arrival_order_does_not_change_result,
        interleaved_cells_emit_separately => interleaved_cells_emit_separately,
        empty_cell_plan_emits_nothing => empty_cell_plan_emits_nothing,
        incomplete_cell_is_an_error_under_strict_policy
            => incomplete_cell_is_an_error_under_strict_policy,
        end_of_stream_error_names_the_lowest_incomplete_cell
            => end_of_stream_error_names_the_lowest_incomplete_cell,
        duplicate_chunk_is_an_error => duplicate_chunk_is_an_error,
        duplicate_between_lost_and_partial_is_an_error
            => duplicate_between_lost_and_partial_is_an_error,
        lost_chunk_debits_tree_audit_as_degraded => lost_chunk_completes_cell_as_degraded,
        lost_chunk_under_strict_policy_is_an_error => lost_chunk_under_strict_policy_is_an_error,
        fully_lost_cell_emits_nothing_but_counts_degraded
            => fully_lost_cell_emits_nothing_but_counts_degraded,
        incomplete_cell_answers_degraded_under_tolerant_policy
            => incomplete_cell_answers_degraded_under_tolerant_policy,
        cell_lost_without_a_chunk_message_closes_with_one_lost_chunk
            => cell_lost_without_a_chunk_message_closes_with_one_lost_chunk,
        scan_lost_cell_is_journaled_not_dropped => scan_lost_cell_is_journaled_not_dropped,
        cell_without_a_plan_expects_what_arrived => cell_without_a_plan_expects_what_arrived,
        many_chunks_keep_live_buckets_logarithmic => many_chunks_keep_live_buckets_logarithmic,
        probe_receives_anytime_clustering => probe_receives_anytime_clustering,
        probe_queries_do_not_change_the_final_clustering
            => probe_queries_do_not_change_the_final_clustering,
    );
}
