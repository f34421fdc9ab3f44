//! The server's `METRICS` exposition, scraped before and after the
//! timed phase: counters are differenced, and histogram quantiles are
//! read off the differenced `_bucket` series, so every per-layer number
//! covers exactly the timed phase.

use std::collections::HashMap;

/// One scrape: full sample key (name plus labels) → value.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    samples: HashMap<String, f64>,
}

impl Scrape {
    /// Parses (and lints) a `METRICS` body.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let exp = mmlp_obs::parse_exposition(text).map_err(|e| e.join("; "))?;
        let samples = exp.families.into_values().flat_map(|f| f.samples).collect();
        Ok(Scrape { samples })
    }

    /// Sum of every sample of `name` across its label sets (a bare
    /// key such as `mmlp_serve_busy_total`, or with an exact label
    /// set such as `x_total{mode="warm"}`).
    pub fn sum(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(k, _)| {
                k.as_str() == name || (k.starts_with(name) && k[name.len()..].starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Cumulative `(exclusive upper edge, count)` pairs of histogram
    /// `hist`, summed across label sets, ascending.
    fn buckets(&self, hist: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{hist}_bucket{{");
        let mut by_edge: HashMap<u64, f64> = HashMap::new();
        for (k, v) in &self.samples {
            let Some(labels) = k.strip_prefix(&prefix) else {
                continue;
            };
            let edge = labels
                .split("le=\"")
                .nth(1)
                .and_then(|r| r.split('"').next())
                .and_then(|le| le.parse::<f64>().ok());
            if let Some(edge) = edge.filter(|e| e.is_finite()) {
                *by_edge.entry(edge.to_bits()).or_insert(0.0) += v;
            }
        }
        let mut out: Vec<(f64, f64)> = by_edge
            .into_iter()
            .map(|(bits, c)| (f64::from_bits(bits), c))
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

/// Growth of `name` between two scrapes.
pub fn delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    after.sum(name) - before.sum(name)
}

/// Quantile `q` of the observations histogram `hist` received between
/// two scrapes, interpolated linearly inside the bucket that holds the
/// rank. `None` when nothing was observed.
pub fn delta_quantile(before: &Scrape, after: &Scrape, hist: &str, q: f64) -> Option<f64> {
    let old = before.buckets(hist);
    // Occupied edges only grow, so every earlier edge reappears later;
    // an edge absent earlier had the count of the nearest edge below.
    let cum: Vec<(f64, f64)> = after
        .buckets(hist)
        .into_iter()
        .map(|(edge, c)| {
            let was = old
                .iter()
                .take_while(|(e, _)| *e <= edge)
                .last()
                .map_or(0.0, |&(_, c0)| c0);
            (edge, c - was)
        })
        .collect();
    let total = cum.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * total;
    let mut below = 0.0;
    for &(edge, c) in &cum {
        if c > below && c >= rank {
            let low = bucket_low(edge);
            return Some(low + (edge - low) * ((rank - below) / (c - below)).clamp(0.0, 1.0));
        }
        below = c;
    }
    cum.last().map(|&(e, _)| e)
}

/// Lower bound of the server histogram bucket whose exclusive upper
/// edge is `edge`: unit buckets below 8, then 8 linear sub-buckets per
/// power of two (`mmlp_obs::hist`).
fn bucket_low(edge: f64) -> f64 {
    let v = (edge as u64).saturating_sub(1);
    if v < 8 {
        return v as f64;
    }
    let width = 1u64 << (63 - v.leading_zeros() - 3);
    (v / width * width) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(buckets: &[(u64, u64)], hits: u64) -> Scrape {
        let mut text = String::from("# HELP lat_us latency\n# TYPE lat_us histogram\n");
        for (e, c) in buckets {
            text.push_str(&format!("lat_us_bucket{{le=\"{e}\"}} {c}\n"));
        }
        let n = buckets.last().map_or(0, |b| b.1);
        text.push_str(&format!(
            "lat_us_bucket{{le=\"+Inf\"}} {n}\nlat_us_sum 0\nlat_us_count {n}\n"
        ));
        text.push_str("# HELP hits_total hits\n# TYPE hits_total counter\n");
        text.push_str(&format!(
            "hits_total{{op=\"a\"}} {hits}\nhits_total{{op=\"b\"}} 1\n"
        ));
        Scrape::parse(&text).unwrap()
    }

    #[test]
    fn bucket_lower_bounds_follow_the_log_linear_layout() {
        assert_eq!(bucket_low(1.0), 0.0);
        assert_eq!(bucket_low(8.0), 7.0);
        assert_eq!(bucket_low(9.0), 8.0);
        assert_eq!(bucket_low(18.0), 16.0);
        assert_eq!(bucket_low(20.0), 18.0);
        assert_eq!(bucket_low(288.0), 256.0);
    }

    #[test]
    fn quantiles_cover_only_the_observations_between_scrapes() {
        // Before: 10 samples in [16,18). After: 10 more there and 10 in
        // [256,288), a bucket that did not exist before.
        let before = scrape(&[(18, 10)], 5);
        let after = scrape(&[(18, 20), (288, 30)], 9);
        assert_eq!(delta(&before, &after, "hits_total"), 4.0);
        assert_eq!(after.sum("hits_total{op=\"b\"}"), 1.0);
        // 20 new samples: the median (rank 10) is the top of [16,18).
        assert_eq!(delta_quantile(&before, &after, "lat_us", 0.5), Some(18.0));
        // Rank 15 is halfway through [256,288).
        assert_eq!(delta_quantile(&before, &after, "lat_us", 0.75), Some(272.0));
        assert_eq!(delta_quantile(&after, &after, "lat_us", 0.5), None);
        assert_eq!(delta_quantile(&before, &after, "missing_us", 0.5), None);
    }
}
