//! Metrics, per-phase operation accounting, provenance and the output lines.

use std::fmt::Write as _;

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
}

#[derive(Default, Clone, Copy)]
struct Phase {
    attempted: u64,
    failed: u64,
}

#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    phases: Vec<(&'static str, Phase)>,
    failures: Vec<String>,
    mismatches: u64,
    provenance: Vec<(String, String)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put(name, value, unit, None);
    }

    /// A metric computed from `samples` measurements.
    pub fn set_n(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.put(name, value, unit, Some(samples));
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    fn phase(&mut self, phase: &'static str) -> &mut Phase {
        if let Some(i) = self.phases.iter().position(|(p, _)| *p == phase) {
            return &mut self.phases[i].1;
        }
        self.phases.push((phase, Phase::default()));
        &mut self.phases.last_mut().expect("just pushed").1
    }

    /// `n` operations of `phase` that succeeded.
    pub fn ok(&mut self, phase: &'static str, n: u64) {
        self.phase(phase).attempted += n;
    }

    /// One operation of `phase` that failed (an error reply, a refusal, a
    /// disconnect, a timeout).
    pub fn failed(&mut self, phase: &'static str, message: String) {
        let p = self.phase(phase);
        p.attempted += 1;
        p.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(format!("{phase}: {message}"));
        }
    }

    /// One operation whose output was wrong: a failed operation that also
    /// makes the run incorrect.
    pub fn mismatch(&mut self, phase: &'static str, message: String) {
        self.mismatches += 1;
        self.failed(phase, format!("wrong output: {message}"));
    }

    pub fn provenance(&mut self, key: &str, value: impl Into<String>) {
        self.provenance.push((key.to_string(), value.into()));
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|(_, p)| p.attempted).sum()
    }

    pub fn failed_ops(&self) -> u64 {
        self.phases.iter().map(|(_, p)| p.failed).sum()
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// The human-readable report (standard error).
    pub fn render_text(&self, title: &str) -> String {
        let mut s = format!("== {title}\n");
        for (k, v) in &self.provenance {
            let _ = writeln!(s, "  {k:<28} {v}");
        }
        let _ = writeln!(s, "  operations (attempted / failed):");
        for (name, p) in &self.phases {
            let _ = writeln!(s, "    {name:<26} {:>10} / {}", p.attempted, p.failed);
        }
        for f in &self.failures {
            let _ = writeln!(s, "  FAILED {f}");
        }
        let _ = writeln!(s, "  metrics:");
        for m in &self.metrics {
            let samples = m
                .samples
                .map(|n| format!("  (n = {n})"))
                .unwrap_or_default();
            let _ = writeln!(
                s,
                "    {:<34} {:>16.6} {}{samples}",
                m.name, m.value, m.unit
            );
        }
        s
    }

    /// The full record: provenance, phases and every metric with its unit
    /// and sample count.
    pub fn render_record(&self) -> String {
        let mut s = String::from("{\"record\":{\"provenance\":{");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}:{}",
                if i > 0 { "," } else { "" },
                json_str(k),
                json_str(v)
            );
        }
        s.push_str("},\"phases\":{");
        for (i, (name, p)) in self.phases.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}:{{\"attempted\":{},\"failed\":{}}}",
                if i > 0 { "," } else { "" },
                json_str(name),
                p.attempted,
                p.failed
            );
        }
        s.push_str("},\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            let _ = write!(s, "{}{}", if i > 0 { "," } else { "" }, json_str(f));
        }
        s.push_str("],\"metrics\":{");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                if i > 0 { "," } else { "" },
                json_str(&m.name),
                json_value(m.value),
                json_str(m.unit),
                m.samples.map_or("null".to_string(), |n| n.to_string())
            );
        }
        s.push_str("}}}");
        s
    }

    /// The result line: exactly the metrics named in `wanted`, in order.
    /// A wanted metric that was not produced, or was produced with another
    /// unit, makes the run incorrect.
    pub fn render_result(&mut self, wanted: &[(&str, &'static str)]) -> String {
        let mut body = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) if m.unit == *unit && m.value.is_finite() => m.value,
                Some(m) => {
                    self.mismatch(
                        "report",
                        format!(
                            "metric {name} = {} {} (want a finite value in {unit})",
                            m.value, m.unit
                        ),
                    );
                    0.0
                }
                None => {
                    self.mismatch("report", format!("metric {name} was not produced"));
                    0.0
                }
            };
            let _ = write!(
                body,
                "{}{}:{{\"value\":{},\"unit\":{}}}",
                if i > 0 { "," } else { "" },
                json_str(name),
                json_value(value),
                json_str(unit)
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
            self.correct(),
            self.attempted().max(1),
            self.failed_ops()
        )
    }
}

/// A finite f64 with every digit Rust's shortest round-trip form keeps.
fn json_value(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    format!("{v:?}")
}
