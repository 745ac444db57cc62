//! Synthetic small-sample "hotspot" user trace.
//!
//! The paper trains its Info-RNN-GAN on "a sample of user information from
//! the dataset of NYC Wi-Fi hotspot locations [26]", whose relevant
//! property is that it consists of *many small-sample data features*:
//! location, time, service status and per-session demand. That dataset is
//! an external artefact, so this module ships a deterministic synthetic
//! generator with the same schema and the same small-sample regime, driven
//! by the location-correlated [`crate::demand::FlashCrowd`] process — the
//! hidden feature (location cell) genuinely modulates demand, which is
//! exactly what the GAN's latent code is supposed to recover.

use crate::demand::{DemandProcess, FlashCrowd, FlashCrowdConfig};
use crate::request::{Request, RequestId};
use crate::service::ServiceId;
use mec_net::station::Position;
use mec_net::BsId;

/// One-hot encoder for discrete features (the paper "preprocess[es] the
/// location of the data with one-hot encoding and then treat[s] it as the
/// value of C").
///
/// # Example
///
/// ```
/// use mec_workload::OneHot;
/// let enc = OneHot::new(4);
/// let code = enc.encode(2);
/// assert_eq!(code, vec![0.0, 0.0, 1.0, 0.0]);
/// assert_eq!(enc.decode(&code), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneHot {
    n_classes: usize,
}

impl OneHot {
    /// Creates an encoder over `n_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `n_classes == 0`.
    pub fn new(n_classes: usize) -> Self {
        assert!(n_classes > 0, "one-hot needs at least one class");
        OneHot { n_classes }
    }

    /// Number of classes (= code length).
    pub fn n_classes(self) -> usize {
        self.n_classes
    }

    /// Encodes `class` as a one-hot vector.
    ///
    /// # Panics
    ///
    /// Panics if `class >= n_classes`.
    pub fn encode(self, class: usize) -> Vec<f64> {
        assert!(class < self.n_classes, "class out of range");
        let mut v = vec![0.0; self.n_classes];
        v[class] = 1.0;
        v
    }

    /// Decodes by argmax (tolerant of soft codes such as softmax output).
    ///
    /// # Panics
    ///
    /// Panics if `code.len() != n_classes` or `code` is empty.
    pub fn decode(self, code: &[f64]) -> usize {
        assert_eq!(code.len(), self.n_classes, "code length mismatch");
        assert!(!code.is_empty(), "code must not be empty");
        // Argmax under f64::total_cmp (last max on ties, matching the
        // old max_by) so a NaN logit orders deterministically instead
        // of collapsing the comparison to Equal.
        let mut best = 0;
        for i in 1..code.len() {
            if code[i].total_cmp(&code[best]).is_ge() {
                best = i;
            }
        }
        best
    }
}

/// One observation row of the hotspot trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRow {
    /// Time slot of the observation.
    pub slot: u32,
    /// Which synthetic user produced it.
    pub user: u32,
    /// Discrete location cell (hotspot id).
    pub location_cell: u32,
    /// Service tag requested in the session.
    pub service_tag: u32,
    /// Observed data volume, in data units.
    pub demand: f64,
}

/// A small-sample trace of user sessions at discrete hotspots.
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotTrace {
    n_users: usize,
    n_cells: usize,
    n_services: usize,
    n_slots: usize,
    rows: Vec<TraceRow>,
}

impl HotspotTrace {
    /// Synthesizes a trace of `n_users` users over `n_slots` slots at
    /// `n_cells` hotspots, with location-correlated flash-crowd demand.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn synthesize(
        n_users: usize,
        n_cells: usize,
        n_services: usize,
        n_slots: usize,
        seed: u64,
    ) -> Self {
        assert!(n_users > 0, "n_users must be positive");
        assert!(n_cells > 0, "n_cells must be positive");
        assert!(n_services > 0, "n_services must be positive");
        assert!(n_slots > 0, "n_slots must be positive");
        // Synthetic users: round-robin over cells and services, basic
        // demand varying with the user index.
        let users: Vec<Request> = (0..n_users)
            .map(|i| {
                Request::new(
                    RequestId(i),
                    ServiceId(i % n_services),
                    Position::new(i as f64, 0.0),
                    BsId(0),
                    i % n_cells,
                    1.0 + (i % 5) as f64,
                    1,
                )
            })
            .collect();
        let mut process = FlashCrowd::new(&users, FlashCrowdConfig::default(), seed);
        let mut rows = Vec::with_capacity(n_users * n_slots);
        for slot in 0..n_slots {
            process.advance();
            for u in &users {
                rows.push(TraceRow {
                    slot: slot as u32,
                    user: u.id().index() as u32,
                    location_cell: u.location_cell() as u32,
                    service_tag: u.service().index() as u32,
                    demand: process.demand(u.id()),
                });
            }
        }
        HotspotTrace {
            n_users,
            n_cells,
            n_services,
            n_slots,
            rows,
        }
    }

    /// Records a trace from an arbitrary demand process over the given
    /// requests for `n_slots` slots (advances the process).
    pub fn record<P: DemandProcess>(requests: &[Request], process: &mut P, n_slots: usize) -> Self {
        assert!(n_slots > 0, "n_slots must be positive");
        assert_eq!(
            requests.len(),
            process.n_requests(),
            "request count mismatch"
        );
        let n_cells = requests
            .iter()
            .map(|r| r.location_cell())
            .max()
            .map_or(1, |m| m + 1);
        let n_services = requests
            .iter()
            .map(|r| r.service().index())
            .max()
            .map_or(1, |m| m + 1);
        let mut rows = Vec::with_capacity(requests.len() * n_slots);
        for slot in 0..n_slots {
            process.advance();
            for r in requests {
                rows.push(TraceRow {
                    slot: slot as u32,
                    user: r.id().index() as u32,
                    location_cell: r.location_cell() as u32,
                    service_tag: r.service().index() as u32,
                    demand: process.demand(r.id()),
                });
            }
        }
        HotspotTrace {
            n_users: requests.len(),
            n_cells,
            n_services,
            n_slots,
            rows,
        }
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of hotspot cells.
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// Number of service tags.
    pub fn n_services(&self) -> usize {
        self.n_services
    }

    /// Number of slots.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// All rows in slot-major order.
    pub fn rows(&self) -> &[TraceRow] {
        &self.rows
    }

    /// Per-user demand time series: `series[u][t]`.
    pub fn user_demand_series(&self) -> Vec<Vec<f64>> {
        let mut series = vec![vec![0.0; self.n_slots]; self.n_users];
        for row in &self.rows {
            series[row.user as usize][row.slot as usize] = row.demand;
        }
        series
    }

    /// Per-cell aggregate demand series: `series[c][t]` sums the demand of
    /// every user in cell `c` at slot `t`. This is the sequence the GAN
    /// learns, conditioned on the cell's one-hot code.
    pub fn cell_demand_series(&self) -> Vec<Vec<f64>> {
        let mut series = vec![vec![0.0; self.n_slots]; self.n_cells];
        for row in &self.rows {
            series[row.location_cell as usize][row.slot as usize] += row.demand;
        }
        series
    }

    /// The location cell of each user.
    pub fn user_cells(&self) -> Vec<usize> {
        let mut cells = vec![0usize; self.n_users];
        for row in &self.rows {
            cells[row.user as usize] = row.location_cell as usize;
        }
        cells
    }

    /// Splits the trace along the time axis: first `frac` of slots for
    /// training, the rest held out.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not in `(0, 1)` or a side would be empty.
    pub fn split_time(&self, frac: f64) -> (HotspotTrace, HotspotTrace) {
        assert!(frac > 0.0 && frac < 1.0, "fraction must be in (0, 1)");
        let cut = ((self.n_slots as f64) * frac).round() as usize;
        assert!(
            cut > 0 && cut < self.n_slots,
            "split would leave an empty side"
        );
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for row in &self.rows {
            if (row.slot as usize) < cut {
                a.push(*row);
            } else {
                let mut shifted = *row;
                shifted.slot -= cut as u32;
                b.push(shifted);
            }
        }
        (
            HotspotTrace {
                n_users: self.n_users,
                n_cells: self.n_cells,
                n_services: self.n_services,
                n_slots: cut,
                rows: a,
            },
            HotspotTrace {
                n_users: self.n_users,
                n_cells: self.n_cells,
                n_services: self.n_services,
                n_slots: self.n_slots - cut,
                rows: b,
            },
        )
    }

    /// Renders the trace as CSV (`slot,user,location_cell,service_tag,demand`),
    /// the interchange format for external plotting tools.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(32 * self.rows.len());
        out.push_str("slot,user,location_cell,service_tag,demand\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                r.slot, r.user, r.location_cell, r.service_tag, r.demand
            );
        }
        out
    }

    /// Parses a trace written by [`HotspotTrace::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending line on
    /// malformed input.
    pub fn from_csv(csv: &str) -> Result<Self, String> {
        let mut lines = csv.lines();
        let header = lines.next().ok_or("empty input")?;
        if header.trim() != "slot,user,location_cell,service_tag,demand" {
            return Err(format!("unexpected header `{header}`"));
        }
        let mut rows = Vec::new();
        for (idx, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 5 {
                return Err(format!("line {}: expected 5 fields", idx + 2));
            }
            let parse_u32 = |v: &str, what: &str| -> Result<u32, String> {
                v.trim()
                    .parse()
                    .map_err(|_| format!("line {}: bad {what} `{v}`", idx + 2))
            };
            let demand: f64 = fields[4]
                .trim()
                .parse()
                .map_err(|_| format!("line {}: bad demand `{}`", idx + 2, fields[4]))?;
            if !demand.is_finite() || demand < 0.0 {
                return Err(format!("line {}: demand out of range", idx + 2));
            }
            rows.push(TraceRow {
                slot: parse_u32(fields[0], "slot")?,
                user: parse_u32(fields[1], "user")?,
                location_cell: parse_u32(fields[2], "cell")?,
                service_tag: parse_u32(fields[3], "service")?,
                demand,
            });
        }
        if rows.is_empty() {
            return Err("no data rows".to_string());
        }
        let n_users = rows.iter().map(|r| r.user).max().unwrap_or(0) as usize + 1;
        let n_cells = rows.iter().map(|r| r.location_cell).max().unwrap_or(0) as usize + 1;
        let n_services = rows.iter().map(|r| r.service_tag).max().unwrap_or(0) as usize + 1;
        let n_slots = rows.iter().map(|r| r.slot).max().unwrap_or(0) as usize + 1;
        Ok(HotspotTrace {
            n_users,
            n_cells,
            n_services,
            n_slots,
            rows,
        })
    }

    /// Serializes the trace into a compact binary buffer, big-endian: a
    /// 24-byte header (`u32` users, cells, services and slots, then the
    /// `u64` row count), then 24 bytes per row (`u32` slot, user,
    /// location cell and service tag, then the `f64` demand).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(24 + self.rows.len() * 24);
        for count in [self.n_users, self.n_cells, self.n_services, self.n_slots] {
            buf.extend_from_slice(&(count as u32).to_be_bytes());
        }
        buf.extend_from_slice(&(self.rows.len() as u64).to_be_bytes());
        for row in &self.rows {
            for field in [row.slot, row.user, row.location_cell, row.service_tag] {
                buf.extend_from_slice(&field.to_be_bytes());
            }
            buf.extend_from_slice(&row.demand.to_be_bytes());
        }
        buf
    }

    /// Deserializes a trace written by [`HotspotTrace::to_bytes`]. Bytes
    /// past the declared rows are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`TraceDecodeError`] if the buffer is truncated.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceDecodeError> {
        let mut r = Reader { rest: bytes };
        let n_users = r.u32()? as usize;
        let n_cells = r.u32()? as usize;
        let n_services = r.u32()? as usize;
        let n_slots = r.u32()? as usize;
        // A row count whose byte size overflows cannot fit in any buffer.
        let n_rows = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
        if n_rows.checked_mul(24).is_none_or(|len| len > r.rest.len()) {
            return Err(TraceDecodeError::Truncated);
        }
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            rows.push(TraceRow {
                slot: r.u32()?,
                user: r.u32()?,
                location_cell: r.u32()?,
                service_tag: r.u32()?,
                demand: r.f64()?,
            });
        }
        Ok(HotspotTrace {
            n_users,
            n_cells,
            n_services,
            n_slots,
            rows,
        })
    }
}

/// A big-endian read cursor over an encoded trace.
struct Reader<'a> {
    rest: &'a [u8],
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], TraceDecodeError> {
        let Some((head, tail)) = self.rest.split_first_chunk::<N>() else {
            return Err(TraceDecodeError::Truncated);
        };
        self.rest = tail;
        Ok(*head)
    }

    fn u32(&mut self) -> Result<u32, TraceDecodeError> {
        self.take().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Result<u64, TraceDecodeError> {
        self.take().map(u64::from_be_bytes)
    }

    fn f64(&mut self) -> Result<f64, TraceDecodeError> {
        self.take().map(f64::from_be_bytes)
    }
}

/// Error decoding a binary trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The buffer ended before the declared number of rows.
    Truncated,
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceDecodeError::Truncated => f.write_str("trace buffer was truncated"),
        }
    }
}

impl std::error::Error for TraceDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_round_trip_all_classes() {
        let enc = OneHot::new(5);
        for c in 0..5 {
            assert_eq!(enc.decode(&enc.encode(c)), c);
        }
    }

    #[test]
    fn one_hot_decodes_soft_codes() {
        let enc = OneHot::new(3);
        assert_eq!(enc.decode(&[0.2, 0.5, 0.3]), 1);
    }

    #[test]
    #[should_panic(expected = "class out of range")]
    fn one_hot_rejects_overflow() {
        let _ = OneHot::new(3).encode(3);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn one_hot_rejects_zero_classes() {
        let _ = OneHot::new(0);
    }

    #[test]
    fn synthesize_shape() {
        let t = HotspotTrace::synthesize(12, 4, 3, 50, 1);
        assert_eq!(t.n_users(), 12);
        assert_eq!(t.n_cells(), 4);
        assert_eq!(t.n_services(), 3);
        assert_eq!(t.n_slots(), 50);
        assert_eq!(t.rows().len(), 12 * 50);
    }

    #[test]
    fn synthesize_is_deterministic() {
        assert_eq!(
            HotspotTrace::synthesize(5, 2, 2, 10, 7),
            HotspotTrace::synthesize(5, 2, 2, 10, 7)
        );
    }

    #[test]
    fn user_series_has_positive_demand() {
        let t = HotspotTrace::synthesize(6, 2, 2, 30, 3);
        for series in t.user_demand_series() {
            assert_eq!(series.len(), 30);
            assert!(series.iter().all(|&d| d > 0.0));
        }
    }

    #[test]
    fn cell_series_sums_members() {
        let t = HotspotTrace::synthesize(6, 2, 2, 10, 3);
        let cells = t.cell_demand_series();
        let users = t.user_demand_series();
        let user_cells = t.user_cells();
        assert_eq!(cells.len(), 2);
        for slot in 0..10 {
            for (c, cell) in cells.iter().enumerate() {
                let expect: f64 = (0..6)
                    .filter(|&u| user_cells[u] == c)
                    .map(|u| users[u][slot])
                    .sum();
                assert!((cell[slot] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn split_time_partitions_slots() {
        let t = HotspotTrace::synthesize(4, 2, 2, 20, 3);
        let (train, test) = t.split_time(0.75);
        assert_eq!(train.n_slots(), 15);
        assert_eq!(test.n_slots(), 5);
        assert_eq!(train.rows().len() + test.rows().len(), t.rows().len());
        // Test slots are re-based to zero.
        assert!(test.rows().iter().all(|r| (r.slot as usize) < 5));
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0, 1)")]
    fn split_rejects_bad_fraction() {
        let t = HotspotTrace::synthesize(2, 2, 2, 10, 3);
        let _ = t.split_time(1.0);
    }

    #[test]
    fn binary_round_trip() {
        let t = HotspotTrace::synthesize(5, 3, 2, 15, 9);
        let decoded = HotspotTrace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn binary_wire_format_is_pinned() {
        let csv = "slot,user,location_cell,service_tag,demand\n0,1,2,0,1.5\n1,0,1,0,2.0\n";
        let t = HotspotTrace::from_csv(csv).expect("two rows");
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            0, 0, 0, 2, // users
            0, 0, 0, 3, // cells
            0, 0, 0, 1, // services
            0, 0, 0, 2, // slots
            0, 0, 0, 0, 0, 0, 0, 2, // rows
            0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, // slot, user, cell, tag
            0x3f, 0xf8, 0, 0, 0, 0, 0, 0, // 1.5
            0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0,
            0x40, 0, 0, 0, 0, 0, 0, 0, // 2.0
        ];
        assert_eq!(t.to_bytes(), expected);
        assert_eq!(HotspotTrace::from_bytes(&expected), Ok(t));
    }

    #[test]
    fn truncated_buffer_is_error() {
        let t = HotspotTrace::synthesize(5, 3, 2, 15, 9);
        let bytes = t.to_bytes();
        for cut in [bytes.len() - 8, 23, 0] {
            assert_eq!(
                HotspotTrace::from_bytes(&bytes[..cut]),
                Err(TraceDecodeError::Truncated),
                "cut at {cut}"
            );
        }
        assert_eq!(
            TraceDecodeError::Truncated.to_string(),
            "trace buffer was truncated"
        );
    }

    #[test]
    fn overflowing_row_count_is_truncation_not_a_panic() {
        // 2^61 rows of 24 bytes each wrap a 64-bit byte count to 0.
        let mut header = vec![0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1];
        header.extend_from_slice(&(1u64 << 61).to_be_bytes());
        assert_eq!(
            HotspotTrace::from_bytes(&header),
            Err(TraceDecodeError::Truncated)
        );
    }

    #[test]
    fn csv_round_trip() {
        let t = HotspotTrace::synthesize(4, 2, 2, 6, 3);
        let csv = t.to_csv();
        let back = HotspotTrace::from_csv(&csv).expect("self-written CSV");
        assert_eq!(back, t);
    }

    #[test]
    fn csv_rejects_malformed_input() {
        assert!(HotspotTrace::from_csv("").is_err());
        assert!(HotspotTrace::from_csv("bad,header\n1,2").is_err());
        let good_header = "slot,user,location_cell,service_tag,demand\n";
        assert!(HotspotTrace::from_csv(good_header).is_err(), "no rows");
        let short = format!("{good_header}1,2,3\n");
        assert!(HotspotTrace::from_csv(&short).is_err());
        let nan = format!("{good_header}0,0,0,0,NaN\n");
        assert!(HotspotTrace::from_csv(&nan).is_err());
        let neg = format!("{good_header}0,0,0,0,-1.0\n");
        assert!(HotspotTrace::from_csv(&neg).is_err());
    }

    #[test]
    fn csv_skips_blank_lines() {
        let t = HotspotTrace::synthesize(2, 1, 1, 2, 1);
        let csv = format!("{}\n\n", t.to_csv());
        assert_eq!(HotspotTrace::from_csv(&csv).expect("blank ok"), t);
    }

    #[test]
    fn record_matches_process_output() {
        use crate::demand::FixedDemand;
        let reqs: Vec<Request> = (0..3)
            .map(|i| {
                Request::new(
                    RequestId(i),
                    ServiceId(0),
                    Position::default(),
                    BsId(0),
                    0,
                    (i + 1) as f64,
                    1,
                )
            })
            .collect();
        let mut p = FixedDemand::from_requests(&reqs);
        let t = HotspotTrace::record(&reqs, &mut p, 4);
        assert_eq!(t.n_slots(), 4);
        for row in t.rows() {
            assert_eq!(row.demand, (row.user + 1) as f64);
        }
    }
}
