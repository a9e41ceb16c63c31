//! E7 — Fig. 8: per-model energy-per-bit of the photonic accelerators.
//!
//! For each of the four Table I models, reports the EPB of DEAP-CNN,
//! HolyLight and the four CrossLight variants.  The claims preserved from the
//! paper: `Cross_opt_TED` has the lowest EPB on every model, DEAP-CNN the
//! highest by orders of magnitude, and the average improvements over
//! HolyLight / DEAP-CNN are of the same order as the paper's 9.5× / 1544×.

use crosslight_baselines::accelerator::{CrossLightAccelerator, PhotonicAccelerator};
use crosslight_baselines::{DeapCnn, HolyLight};
use crosslight_core::variants::CrossLightVariant;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;

use crate::report::{fmt_f64, TextTable};

/// EPB of every photonic accelerator on one model.
#[derive(Debug, Clone, PartialEq)]
pub struct EpbRow {
    /// The Table I model.
    pub model: PaperModel,
    /// `(accelerator name, EPB in pJ/bit)` pairs.
    pub epb_pj: Vec<(String, f64)>,
}

impl EpbRow {
    /// EPB of a named accelerator on this model, if present.
    #[must_use]
    pub fn epb_of(&self, name: &str) -> Option<f64> {
        self.epb_pj.iter().find(|(n, _)| n == name).map(|(_, e)| *e)
    }
}

/// The full Fig. 8 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct EpbComparison {
    /// One row per Table I model.
    pub rows: Vec<EpbRow>,
    /// Accelerator names in column order.
    pub accelerators: Vec<String>,
}

impl EpbComparison {
    /// Average EPB of a named accelerator across the four models.
    #[must_use]
    pub fn average_epb(&self, name: &str) -> Option<f64> {
        let values: Vec<f64> = self.rows.iter().filter_map(|r| r.epb_of(name)).collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// Renders the comparison as a text table (models as rows).
    #[must_use]
    pub fn table(&self) -> TextTable {
        let mut header = vec!["model".to_string()];
        header.extend(self.accelerators.iter().cloned());
        let mut table = TextTable::new(header);
        for row in &self.rows {
            let mut cells = vec![format!("{:?}", row.model)];
            for accelerator in &self.accelerators {
                cells.push(fmt_f64(row.epb_of(accelerator).unwrap_or(f64::NAN), 3));
            }
            table.push_row(cells);
        }
        table
    }
}

/// The accelerators compared in Fig. 8, in plotting order.
fn accelerators() -> Vec<Box<dyn PhotonicAccelerator>> {
    let mut out: Vec<Box<dyn PhotonicAccelerator>> =
        vec![Box::new(DeapCnn::new()), Box::new(HolyLight::new())];
    for variant in CrossLightVariant::all() {
        out.push(Box::new(CrossLightAccelerator::new(variant)));
    }
    out
}

/// Runs the Fig. 8 per-model EPB comparison.
///
/// # Errors
///
/// Propagates accelerator-evaluation errors (which do not occur for the
/// built-in models).
pub fn run() -> Result<EpbComparison, Box<dyn std::error::Error>> {
    let accelerators = accelerators();
    let names: Vec<String> = accelerators.iter().map(|a| a.name()).collect();
    let mut rows = Vec::with_capacity(4);
    for model in PaperModel::all() {
        let workload = NetworkWorkload::from_spec(&model.spec())?;
        let mut epb_pj = Vec::with_capacity(accelerators.len());
        for accelerator in &accelerators {
            let report = accelerator.evaluate(&workload)?;
            epb_pj.push((accelerator.name(), report.energy_per_bit_pj));
        }
        rows.push(EpbRow { model, epb_pj });
    }
    Ok(EpbComparison {
        rows,
        accelerators: names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_opt_ted_wins_on_every_model() {
        let comparison = run().unwrap();
        for row in &comparison.rows {
            let best = row.epb_of("Cross_opt_TED").unwrap();
            for (name, epb) in &row.epb_pj {
                if name != "Cross_opt_TED" {
                    assert!(
                        best < *epb,
                        "{name} should have higher EPB than Cross_opt_TED on {:?}",
                        row.model
                    );
                }
            }
        }
    }

    #[test]
    fn average_improvement_factors_match_the_paper_order_of_magnitude() {
        let comparison = run().unwrap();
        let opt_ted = comparison.average_epb("Cross_opt_TED").unwrap();
        let holylight = comparison.average_epb("Holylight").unwrap();
        let deap = comparison.average_epb("DEAP_CNN").unwrap();
        let holylight_factor = holylight / opt_ted;
        let deap_factor = deap / opt_ted;
        // Paper: 9.5× and 1544×.
        assert!(
            holylight_factor > 3.0 && holylight_factor < 40.0,
            "HolyLight factor {holylight_factor:.1}"
        );
        assert!(deap_factor > 200.0, "DEAP factor {deap_factor:.0}");
        assert!(deap_factor > holylight_factor);
    }

    #[test]
    fn table_has_four_model_rows_and_six_accelerators() {
        let comparison = run().unwrap();
        assert_eq!(comparison.rows.len(), 4);
        assert_eq!(comparison.accelerators.len(), 6);
        assert_eq!(comparison.table().len(), 4);
        assert!(comparison.average_epb("missing").is_none());
    }
}
