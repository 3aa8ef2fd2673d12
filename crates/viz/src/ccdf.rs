//! Vulnerability-curve charts (figs. 2–6): complementary cumulative counts.
//!
//! X axis: minimum pollution count; Y axis: number of attackers achieving
//! at least that pollution. "The faster a curve goes to zero, the more
//! resistant an AS is to attack."

use crate::style::{series_color, GRID, SURFACE, TEXT_MUTED, TEXT_PRIMARY, TEXT_SECONDARY};
use crate::svg::{fmt_count, nice_ticks, Anchor, SvgDoc};

/// One curve: label plus `(pollution, attackers_at_least)` step points in
/// ascending pollution order (as produced by
/// `bgpsim_hijack::VulnerabilityCurve::points`).
#[derive(Debug, Clone)]
pub struct CurveSeries {
    /// Legend label.
    pub label: String,
    /// `(pollution, attackers with ≥ pollution)` steps, ascending.
    pub points: Vec<(u32, usize)>,
}

/// A multi-series CCDF chart.
#[derive(Debug, Clone)]
pub struct CcdfChart {
    title: String,
    subtitle: String,
    series: Vec<CurveSeries>,
}

impl CcdfChart {
    /// Starts a chart with a title.
    pub fn new(title: impl Into<String>) -> CcdfChart {
        CcdfChart {
            title: title.into(),
            subtitle: String::new(),
            series: Vec::new(),
        }
    }

    /// Sets the subtitle (scenario parameters).
    #[must_use]
    pub fn subtitle(mut self, s: impl Into<String>) -> CcdfChart {
        self.subtitle = s.into();
        self
    }

    /// Adds a curve. Colors are assigned by insertion order from the fixed
    /// categorical palette (never cycled; a ninth series folds to gray).
    pub fn add_series(&mut self, label: impl Into<String>, points: Vec<(u32, usize)>) {
        self.series.push(CurveSeries {
            label: label.into(),
            points,
        });
    }

    /// Renders the chart to an SVG string.
    pub fn render(&self) -> String {
        let (w, h) = (920.0, 560.0);
        let legend_rows = self.series.len().div_ceil(4);
        let top = 64.0 + legend_rows as f64 * 20.0;
        let (left, right, bottom) = (86.0, 28.0, 56.0);
        let (pw, ph) = (w - left - right, h - top - bottom);
        let mut doc = SvgDoc::new(w, h);
        doc.rect(0.0, 0.0, w, h, SURFACE);
        doc.text_styled(
            16.0,
            28.0,
            &self.title,
            18.0,
            TEXT_PRIMARY,
            Anchor::Start,
            true,
            0.0,
        );
        if !self.subtitle.is_empty() {
            doc.text(
                16.0,
                48.0,
                &self.subtitle,
                12.0,
                TEXT_SECONDARY,
                Anchor::Start,
            );
        }

        let max_x = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .max()
            .unwrap_or(1) as f64;
        let max_y = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(_, y)| y))
            .max()
            .unwrap_or(1) as f64;
        let xt = nice_ticks(max_x.max(1.0), 8);
        let yt = nice_ticks(max_y.max(1.0), 6);
        let x_hi = *xt.last().expect("ticks nonempty");
        let y_hi = *yt.last().expect("ticks nonempty");
        let sx = |v: f64| left + (v / x_hi) * pw;
        let sy = |v: f64| top + ph - (v / y_hi) * ph;

        // Recessive hairline grid + axis labels.
        for &t in &yt {
            doc.line(left, sy(t), left + pw, sy(t), GRID, 1.0);
            doc.text(
                left - 8.0,
                sy(t) + 4.0,
                &fmt_count(t),
                11.0,
                TEXT_SECONDARY,
                Anchor::End,
            );
        }
        for &t in &xt {
            doc.line(sx(t), top, sx(t), top + ph, GRID, 1.0);
            doc.text(
                sx(t),
                top + ph + 18.0,
                &fmt_count(t),
                11.0,
                TEXT_SECONDARY,
                Anchor::Middle,
            );
        }
        doc.text(
            left + pw / 2.0,
            h - 14.0,
            "minimum polluted ASes",
            12.0,
            TEXT_SECONDARY,
            Anchor::Middle,
        );
        doc.text_styled(
            20.0,
            top + ph / 2.0,
            "attackers achieving at least x",
            12.0,
            TEXT_SECONDARY,
            Anchor::Middle,
            false,
            -90.0,
        );

        // Legend (always present for >= 2 series).
        if self.series.len() >= 2 {
            for (i, s) in self.series.iter().enumerate() {
                let col = i % 4;
                let row = i / 4;
                let lx = 16.0 + col as f64 * 225.0;
                let ly = 62.0 + row as f64 * 20.0;
                doc.line(lx, ly - 4.0, lx + 18.0, ly - 4.0, series_color(i), 3.0);
                let label = truncate(&s.label, 32);
                doc.text(lx + 24.0, ly, &label, 12.0, TEXT_SECONDARY, Anchor::Start);
            }
        }

        // Step curves, 2px.
        for (i, s) in self.series.iter().enumerate() {
            if s.points.is_empty() {
                continue;
            }
            let color = series_color(i);
            let mut pts: Vec<(f64, f64)> = Vec::with_capacity(s.points.len() * 2 + 2);
            // CCDF: start at (0, total attackers).
            let y0 = s.points.first().expect("nonempty").1 as f64;
            pts.push((sx(0.0), sy(y0)));
            let mut prev_y = y0;
            for &(x, y) in &s.points {
                pts.push((sx(x as f64), sy(prev_y)));
                pts.push((sx(x as f64), sy(y as f64)));
                prev_y = y as f64;
            }
            // Drop to zero at the curve's max pollution.
            let last_x = s.points.last().expect("nonempty").0 as f64;
            pts.push((sx(last_x), sy(0.0)));
            // Decimate sub-pixel steps: thousands of distinct pollution
            // values collapse to at most ~2 points per output pixel.
            let mut thin: Vec<(f64, f64)> = Vec::with_capacity(pts.len().min(4096));
            for &(x, y) in &pts {
                match thin.last() {
                    Some(&(lx, ly)) if (x - lx).abs() < 0.5 && (y - ly).abs() < 0.5 => {}
                    _ => thin.push((x, y)),
                }
            }
            if let (Some(&last), Some(&tl)) = (pts.last(), thin.last()) {
                if tl != last {
                    thin.push(last);
                }
            }
            doc.polyline(&thin, color, 2.0);
        }
        doc.text(
            w - 16.0,
            h - 14.0,
            "CCDF over attackers; data in the companion CSV",
            10.0,
            TEXT_MUTED,
            Anchor::End,
        );
        doc.finish()
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max - 1).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_multiseries_with_legend() {
        let mut c = CcdfChart::new("Vulnerability of AS98-like target")
            .subtitle("tiny internet, all attackers");
        c.add_series("baseline", vec![(1, 100), (50, 40), (200, 3)]);
        c.add_series("tier-1 filters", vec![(1, 80), (30, 10)]);
        let svg = c.render();
        assert!(svg.contains("<svg"));
        assert!(svg.contains("baseline"));
        assert!(svg.contains("tier-1 filters"));
        assert!(svg.contains("polyline"));
        assert!(svg.contains("Vulnerability"));
    }

    #[test]
    fn single_series_has_no_legend_key() {
        let mut c = CcdfChart::new("t");
        c.add_series("only", vec![(1, 5)]);
        let svg = c.render();
        // The label text appears only in the legend, which single-series
        // charts skip (the title names the series).
        assert!(!svg.contains(">only<"));
    }

    #[test]
    fn empty_chart_still_renders() {
        let c = CcdfChart::new("empty");
        let svg = c.render();
        assert!(svg.contains("<svg"));
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    fn truncation_is_safe() {
        assert_eq!(truncate("short", 10), "short");
        let t = truncate("a very long label that will not fit at all", 10);
        assert!(t.chars().count() <= 10);
        assert!(t.ends_with('…'));
    }
}
