//! Bandwidth time series reshaping for the timeline figures.

use nvmgc_memsim::TrafficSample;
use serde::Serialize;

/// A read/write/total bandwidth series in MB/s over fixed-width bins — the
/// shape of the paper's Figs. 2, 3 and 7.
#[derive(Debug, Clone, Serialize)]
pub struct BandwidthSeries {
    /// Bin width in milliseconds.
    pub bin_ms: f64,
    /// Read bandwidth per bin, MB/s.
    pub read: Vec<f64>,
    /// Write bandwidth per bin, MB/s.
    pub write: Vec<f64>,
}

impl BandwidthSeries {
    /// Builds a series from the sampler's raw byte bins.
    pub fn from_bins(bins: &[TrafficSample], bin_ns: u64) -> BandwidthSeries {
        BandwidthSeries {
            bin_ms: bin_ns as f64 / 1e6,
            read: bins.iter().map(|b| b.read_mbps(bin_ns)).collect(),
            write: bins.iter().map(|b| b.write_mbps(bin_ns)).collect(),
        }
    }

    /// Total bandwidth per bin, MB/s.
    pub fn total(&self) -> Vec<f64> {
        self.read
            .iter()
            .zip(&self.write)
            .map(|(r, w)| r + w)
            .collect()
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.read.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.read.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bins_converts_units() {
        // 1_000_000 bytes over 1 ms = 1 GB/s = 1000 MB/s.
        let bin = TrafficSample {
            read_bytes: 1_000_000,
            write_bytes: 500_000,
        };
        let s = BandwidthSeries::from_bins(&[bin], 1_000_000);
        assert!((s.read[0] - 1000.0).abs() < 1e-9);
        assert!((s.write[0] - 500.0).abs() < 1e-9);
        assert!((s.total()[0] - 1500.0).abs() < 1e-9);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }
}
