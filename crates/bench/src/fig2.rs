//! Fig. 2 — the §V performance model: predicted time of the Distance
//! Halving vs naïve algorithms across message sizes and densities.

use crate::common::{fmt_bytes, fmt_secs, fmt_x, Scale};
use crate::suite::{row, Measured};
use nhood_core::model::fig2_sweep;

/// Runs the model sweep: section `fig2_model`.
pub fn run(scale: Scale) -> Measured {
    let n = scale.rsg_largest().0;
    let rows = fig2_sweep(n, &scale.densities(), &scale.msg_sizes())
        .into_iter()
        .map(|pt| {
            row! {
                "delta" => pt.delta.to_string(), "msg_size" => fmt_bytes(pt.m),
                "model_naive_s" => fmt_secs(pt.naive), "model_dh_s" => fmt_secs(pt.dh),
                "model_speedup" => fmt_x(pt.naive / pt.dh),
            }
        })
        .collect();
    Measured { sections: vec![("fig2_model", rows)], gates: vec![] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_full_grid() {
        assert_eq!(run(Scale::Quick).section("fig2_model").len(), 2 * 3); // densities × sizes
    }
}
