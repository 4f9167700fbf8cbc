//! What a run measured, how it is summarised (medians and quartiles over
//! the reps, wall-clock readings scaled to the box's reference pace), the
//! determinism check, and the printed and JSON forms.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::calib::{self, Timed};
use crate::http::{self, obj, str_value};
use crate::layers::Value;
use crate::metrics;
use crate::stats::Summary;
use crate::workloads::{Counters, Rep};

/// Everything measured for one workload.
#[derive(Clone, Debug, Default)]
pub struct WorkloadResult {
    pub name: String,
    /// `(seconds, calibration seconds around it)` of each set-up (the full
    /// report sets up once per child, a contract run several times).
    pub setups: Vec<(f64, f64)>,
    /// The untraced reps: every end-to-end number comes from these.
    pub reps: Vec<Rep>,
    /// The one traced rep.
    pub traced: Option<Rep>,
    /// Per-layer metrics of the traced run.
    pub layers: Counters,
    pub peak_rss_mb: f64,
    /// Failures outside any rep (set-up, final check, tear-down).
    pub errors: Vec<String>,
}

/// One end-to-end metric: scaled to the reference pace (what is gated) and
/// as read off the clock.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub scaled: Summary,
    pub raw: Summary,
}

impl WorkloadResult {
    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.attempted).sum::<u64>().max(1)
    }

    /// Failed ops. A failure outside the reps (the bit-for-bit check)
    /// condemns every op: the results cannot be trusted.
    pub fn failed(&self) -> u64 {
        if self.errors.is_empty() {
            self.reps.iter().map(|r| r.failed).sum()
        } else {
            self.attempted()
        }
    }

    pub fn fail_share(&self) -> f64 {
        self.failed() as f64 / self.attempted() as f64
    }

    /// Every error message of the run.
    pub fn all_errors(&self) -> Vec<String> {
        self.errors
            .iter()
            .cloned()
            .chain(self.reps.iter().filter_map(|r| r.error.clone()))
            .chain(self.traced.iter().filter_map(|r| r.error.clone()))
            .collect()
    }

    /// The end-to-end metrics, summarised over the untraced reps
    /// (`req_p50_us` over all their primary ops pooled).
    pub fn end_to_end(&self) -> BTreeMap<&'static str, EndToEnd> {
        let mut m = BTreeMap::new();
        // Each pair is one reading: (as read off the clock, scaled).
        let mut add = |name: &'static str, pairs: Vec<(f64, f64)>| {
            if !pairs.is_empty() {
                let raw: Vec<f64> = pairs.iter().map(|(raw, _)| *raw).collect();
                let scaled: Vec<f64> = pairs.iter().map(|(_, scaled)| *scaled).collect();
                m.insert(
                    name,
                    EndToEnd {
                        scaled: Summary::of(&scaled),
                        raw: Summary::of(&raw),
                    },
                );
            }
        };
        add(
            "setup_s",
            self.setups
                .iter()
                .map(|&(s, cal)| (s, s * calib::factor(cal, cal)))
                .collect(),
        );
        add(
            "wall_s",
            self.reps
                .iter()
                .map(|r| (r.wall.raw_s, r.wall.scaled_s))
                .collect(),
        );
        add(
            "req_p50_us",
            self.reps
                .iter()
                .flat_map(|r| r.ops.iter().map(|t| (t.raw_s * 1e6, t.scaled_s * 1e6)))
                .collect(),
        );
        // Memory does not depend on the box's pace.
        add("peak_rss_mb", vec![(self.peak_rss_mb, self.peak_rss_mb)]);
        m
    }

    /// The simulated statistics and counts of one rep (they are the same
    /// for every rep; [`WorkloadResult::check_determinism`] says so).
    pub fn counters(&self) -> Counters {
        self.reps
            .first()
            .or(self.traced.as_ref())
            .map(|r| r.counters.clone())
            .unwrap_or_default()
    }

    /// Every simulated statistic and count must be identical on every rep
    /// and on the traced rep (floats to within their summation error).
    pub fn check_determinism(&self) -> Result<(), String> {
        let reps: Vec<&Rep> = self
            .reps
            .iter()
            .chain(self.traced.iter())
            .filter(|r| r.error.is_none())
            .collect();
        let Some(first) = reps.first() else {
            return Ok(());
        };
        for rep in &reps[1..] {
            for (name, want) in &first.counters {
                let got = rep.counters.get(name).copied().unwrap_or(f64::NAN);
                if !same_counter(got, *want) {
                    return Err(format!(
                        "nondeterministic counter {name}: {want} then {got} on {}",
                        self.name
                    ));
                }
            }
        }
        Ok(())
    }

    pub fn to_value(&self) -> Value {
        let rep_value = |r: &Rep| {
            obj(vec![
                ("wall", timed_value(&r.wall)),
                ("cal_s", r.cal_s.to_value()),
                ("ops", Value::Arr(r.ops.iter().map(timed_value).collect())),
                ("attempted", r.attempted.to_value()),
                ("failed", r.failed.to_value()),
                ("counters", counters_value(&r.counters)),
                ("error", r.error.as_deref().map_or(Value::Null, str_value)),
            ])
        };
        let (setup_s, setup_cal_s): (Vec<f64>, Vec<f64>) = self.setups.iter().copied().unzip();
        obj(vec![
            ("name", str_value(&self.name)),
            ("setup_s", setup_s.to_value()),
            ("setup_cal_s", setup_cal_s.to_value()),
            (
                "reps",
                Value::Arr(self.reps.iter().map(rep_value).collect()),
            ),
            (
                "traced",
                self.traced.as_ref().map_or(Value::Null, rep_value),
            ),
            ("layers", counters_value(&self.layers)),
            ("peak_rss_mb", self.peak_rss_mb.to_value()),
            ("errors", self.errors.to_value()),
        ])
    }

    pub fn from_value(v: &Value) -> Result<WorkloadResult, String> {
        let rep_of = |v: &Value| -> Result<Rep, String> {
            Ok(Rep {
                wall: timed_of(http::get(v, &["wall"])?)?,
                cal_s: http::get_f64(v, &["cal_s"])?,
                ops: http::as_arr(http::get(v, &["ops"])?)?
                    .iter()
                    .map(timed_of)
                    .collect::<Result<_, _>>()?,
                attempted: http::get_u64(v, &["attempted"])?,
                failed: http::get_u64(v, &["failed"])?,
                counters: counters_of(http::get(v, &["counters"])?)?,
                error: match http::get(v, &["error"])? {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                },
            })
        };
        let Value::Str(name) = http::get(v, &["name"])? else {
            return Err("result without a name".into());
        };
        Ok(WorkloadResult {
            name: name.clone(),
            setups: f64s(http::get(v, &["setup_s"])?)?
                .into_iter()
                .zip(f64s(http::get(v, &["setup_cal_s"])?)?)
                .collect(),
            reps: http::as_arr(http::get(v, &["reps"])?)?
                .iter()
                .map(rep_of)
                .collect::<Result<_, _>>()?,
            traced: match http::get(v, &["traced"])? {
                Value::Null => None,
                t => Some(rep_of(t)?),
            },
            layers: counters_of(http::get(v, &["layers"])?)?,
            peak_rss_mb: http::get_f64(v, &["peak_rss_mb"])?,
            errors: http::as_arr(http::get(v, &["errors"])?)?
                .iter()
                .map(|e| match e {
                    Value::Str(s) => Ok(s.clone()),
                    other => Err(format!("error entry is not a string: {other:?}")),
                })
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Two readings of one simulated statistic agree: exactly, or (sums of
/// simulated seconds taken as differences of running totals) to nine
/// digits.
pub fn same_counter(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// `[raw seconds, scaled seconds]`.
fn timed_value(t: &Timed) -> Value {
    Value::Arr(vec![t.raw_s.to_value(), t.scaled_s.to_value()])
}

fn timed_of(v: &Value) -> Result<Timed, String> {
    match f64s(v)?.as_slice() {
        [raw_s, scaled_s] => Ok(Timed {
            raw_s: *raw_s,
            scaled_s: *scaled_s,
        }),
        other => Err(format!("expected [raw, scaled], got {other:?}")),
    }
}

fn f64s(v: &Value) -> Result<Vec<f64>, String> {
    http::as_arr(v)?.iter().map(http::as_f64).collect()
}

pub fn counters_value(c: &Counters) -> Value {
    Value::Obj(c.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
}

fn counters_of(v: &Value) -> Result<Counters, String> {
    match v {
        Value::Obj(fields) => fields
            .iter()
            .map(|(k, v)| Ok((k.clone(), http::as_f64(v)?)))
            .collect(),
        other => Err(format!("expected an object of counters, got {other:?}")),
    }
}

/// Print one workload's rows: `workload metric value unit`, with n and
/// quartiles beside every timing, then the same timing as read off the
/// clock (`raw`), then the pace the box ran at.
pub fn print_rows(r: &WorkloadResult) {
    let w = &r.name;
    let e2e = r.end_to_end();
    let spread = e2e.get("wall_s").map_or(0.0, |e| e.scaled.spread());
    for (name, unit, _) in metrics::END_TO_END {
        if let Some(e) = e2e.get(name) {
            let (s, raw) = (e.scaled, e.raw);
            println!(
                "{w} {name} {:.6} {unit} q1={:.6} q3={:.6} min={:.6} n={} rep_spread={spread:.4} raw={:.6} raw_q1={:.6} raw_q3={:.6}",
                s.median, s.q1, s.q3, s.min, s.n, raw.median, raw.q1, raw.q3
            );
        }
    }
    let cal: Vec<f64> = r.reps.iter().map(|rep| rep.cal_s).collect();
    if !cal.is_empty() {
        let s = Summary::of(&cal);
        println!(
            "{w} pace {:.4} ratio calibration_s={:.6} q1={:.6} q3={:.6} reference_s={}",
            calib::REFERENCE_S / s.median,
            s.median,
            s.q1,
            s.q3,
            calib::REFERENCE_S
        );
    }
    println!(
        "{w} fail_share {} ratio failed={} attempted={}",
        r.fail_share(),
        r.failed(),
        r.attempted()
    );
    for (name, v) in r.counters().iter().chain(&r.layers) {
        println!("{w} {name} {v} {}", metrics::unit_of(name));
    }
    for e in r.all_errors() {
        println!("{w} error {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(raw_s: f64, factor: f64) -> Timed {
        Timed {
            raw_s,
            scaled_s: raw_s * factor,
        }
    }

    fn rep(wall_s: f64, makespan: f64) -> Rep {
        Rep {
            wall: timed(wall_s, 1.0),
            cal_s: calib::REFERENCE_S,
            ops: vec![timed(wall_s, 1.0)],
            attempted: 3,
            failed: 0,
            counters: [("sim.makespan_s".to_string(), makespan)].into(),
            error: None,
        }
    }

    #[test]
    fn determinism_check_names_the_counter() {
        let mut r = WorkloadResult {
            name: "saxpy_stream".into(),
            reps: vec![rep(1.0, 0.5), rep(1.1, 0.5 + 1e-14)],
            ..Default::default()
        };
        assert_eq!(r.check_determinism(), Ok(()));
        r.traced = Some(rep(1.2, 0.6));
        let err = r.check_determinism().unwrap_err();
        assert!(
            err.starts_with("nondeterministic counter sim.makespan_s"),
            "{err}"
        );
    }

    #[test]
    fn end_to_end_reports_scaled_and_raw_readings() {
        // The second rep ran on a box half as fast and took twice as long.
        let mut slow = rep(2.0, 0.5);
        slow.wall = timed(2.0, 0.5);
        slow.ops = vec![timed(2.0, 0.5)];
        let r = WorkloadResult {
            name: "saxpy_stream".into(),
            reps: vec![rep(1.0, 0.5), slow],
            peak_rss_mb: 10.0,
            ..Default::default()
        };
        let e2e = r.end_to_end();
        assert_eq!(e2e["wall_s"].scaled.median, 1.0);
        assert_eq!(e2e["wall_s"].scaled.spread(), 0.0);
        assert_eq!(e2e["wall_s"].raw.median, 1.5);
        assert_eq!(e2e["req_p50_us"].scaled.median, 1e6);
        assert_eq!(e2e["peak_rss_mb"].scaled.median, 10.0);
    }

    #[test]
    fn results_round_trip_through_json() {
        let r = WorkloadResult {
            name: "launch_storm".into(),
            setups: vec![(0.25, 0.006)],
            reps: vec![rep(1.0, 0.5)],
            traced: Some(rep(1.5, 0.5)),
            layers: [("ladder.serve_share".to_string(), 0.7)].into(),
            peak_rss_mb: 42.5,
            errors: vec!["boom".into()],
        };
        let text = crate::layers::json_to_string(&r.to_value());
        let back =
            WorkloadResult::from_value(&crate::layers::json_from_str(&text).unwrap()).unwrap();
        assert_eq!(back.to_value(), r.to_value());
        assert_eq!(
            back.failed(),
            back.attempted(),
            "an outside error fails every op"
        );
    }
}
