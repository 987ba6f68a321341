//! Ablation — forecast ensemble vs its individual members.
//!
//! "We employ a weighted ensemble of predictions derived from both the
//! Prophet and historical average methods. … our ensemble-based approach
//! maintains comparable precision and robustness" (§5.2). This study scores
//! prophet-lite alone, historical average alone, and the full ensemble
//! (denoise + change points + PSD + blend + burst guard) on the paper's four
//! workload archetypes.

use crate::{banner, fmt, print_table};
use abase_forecast::histavg::{self, HistoricalAverage};
use abase_forecast::prophet::ProphetModel;
use abase_forecast::psd::dominant_period;
use abase_forecast::{forecast, smape};
use abase_util::TimeSeries;
use abase_workload::series::{SeriesSpec, HOUR};

struct Scenario {
    name: &'static str,
    spec: SeriesSpec,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "daily cycle + trend",
            spec: SeriesSpec {
                hours: 720 + 168,
                base: 300.0,
                trend_per_hour: 0.25,
                seasonal: vec![(24.0, 80.0)],
                noise: 0.03,
                seed: 1,
                ..Default::default()
            },
        },
        Scenario {
            name: "3.5-day TTL cycle",
            spec: SeriesSpec {
                hours: 720 + 168,
                base: 500.0,
                trend_per_hour: 0.0,
                seasonal: vec![(84.0, 120.0)],
                noise: 0.03,
                seed: 2,
                ..Default::default()
            },
        },
        Scenario {
            name: "trend change mid-series",
            spec: SeriesSpec {
                hours: 720 + 168,
                base: 400.0,
                trend_per_hour: 0.0,
                seasonal: vec![(24.0, 40.0)],
                steps: vec![(500, 350.0)],
                noise: 0.03,
                seed: 3,
                ..Default::default()
            },
        },
        Scenario {
            name: "noisy with one-off spike",
            spec: SeriesSpec {
                hours: 720 + 168,
                base: 600.0,
                trend_per_hour: 0.05,
                seasonal: vec![(24.0, 60.0), (168.0, 40.0)],
                spikes: vec![(400, 3_000.0)],
                noise: 0.06,
                seed: 4,
                ..Default::default()
            },
        },
    ]
}

/// Print this experiment's report; it has no smoke size.
pub fn run(_smoke: bool) -> Result<(), String> {
    banner(
        "Ablation: forecasting",
        "ensemble vs prophet-only vs historical-average-only (7-day horizon sMAPE)",
        "the ensemble is competitive everywhere; single models fail on some archetypes",
    );
    let horizon = 168usize;
    let mut rows = Vec::new();
    for scenario in scenarios() {
        let full = scenario.spec.build();
        let (train, test) = full.split_at(full.len() - horizon);
        let train_values = train.values().to_vec();
        let period = dominant_period(&train_values);
        let prophet_fc = ProphetModel::fit(&train_values, period)
            .map(|m| m.forecast(horizon))
            .unwrap_or_else(|| vec![0.0; horizon]);
        let hist_fc = HistoricalAverage::fit(&train_values, period, histavg::DECAY).forecast(horizon);
        let train_ts = TimeSeries::new(0, HOUR, train_values);
        let ens = forecast(&train_ts, horizon);
        rows.push(vec![
            scenario.name.to_string(),
            fmt(smape(test.values(), &prophet_fc), 3),
            fmt(smape(test.values(), &hist_fc), 3),
            fmt(smape(test.values(), &ens.values), 3),
            format!("{:?}", ens.model),
        ]);
    }
    print_table(
        &[
            "scenario",
            "prophet-lite",
            "historical avg",
            "ensemble",
            "ensemble path",
        ],
        &rows,
    );
    println!("\nsMAPE: lower is better. The ensemble should track the best member per row");
    println!("(and beat both when denoising or the burst guard engages).");
    Ok(())
}
