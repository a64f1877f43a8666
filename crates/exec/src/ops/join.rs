//! Tumbling-window equi-join (⋈) with epoch offsets.

use qap_expr::BoundExpr;
use qap_plan::JoinType;
use qap_types::{Tuple, Value};

use crate::fx::{self, FxHashMap};
use crate::ExecResult;

use super::{bucket_of, Operator};

/// End of a hash chain in [`Epoch::next`].
const NO_ROW: u32 = u32::MAX;

/// Rows of one epoch on one join side. Every row's equi-key is
/// evaluated once, on insert, into the flat `keys` arena; the probed
/// (right) side also threads its rows into per-hash chains, so
/// buffering a row allocates no per-row key or index entry and a probe
/// walks candidates in insertion order.
#[derive(Default)]
struct Epoch {
    rows: Vec<Tuple>,
    matched: Vec<bool>,
    /// Equi-key values, `key.len()` per row, in row order.
    keys: Vec<Value>,
    /// Key hash → `(first, last)` row of its chain. Rows whose key holds
    /// a NULL match nothing (SQL equality) and are never chained.
    heads: FxHashMap<u64, (u32, u32)>,
    /// Per-row successor within its hash chain ([`NO_ROW`] ends it).
    next: Vec<u32>,
}

/// Hash of a join key, or `None` when the key holds a NULL.
fn key_hash(key: &[Value]) -> Option<u64> {
    let mut vh = fx::ValueHash::new();
    for v in key {
        if v.is_null() {
            return None;
        }
        vh.add(v);
    }
    Some(vh.finish())
}

struct Side {
    /// Position of the temporal attribute in this side's schema.
    temporal_idx: usize,
    /// Equi-key expressions over this side's schema.
    key: Vec<BoundExpr>,
    /// Whether this side's epochs are probed (the right side) and so
    /// need hash chains; the left side only stores its keys.
    probed: bool,
    /// Reused key evaluation buffer.
    key_scratch: Vec<Value>,
    /// Last observed epoch.
    cur: Option<i128>,
    /// Buffered epochs.
    epochs: FxHashMap<i128, Epoch>,
    late: u64,
}

impl Side {
    fn new(temporal_idx: usize, key: Vec<BoundExpr>, probed: bool) -> Self {
        Side {
            temporal_idx,
            key,
            probed,
            key_scratch: Vec::new(),
            cur: None,
            epochs: FxHashMap::default(),
            late: 0,
        }
    }

    /// Buffers one tuple. Returns whether epoch state changed in a way
    /// that can make pairings ready — the current epoch advanced or a
    /// (possibly retired-and-revived) epoch was created. When neither
    /// happened, every closed/retired set is unchanged since the last
    /// `fire_ready` pass emptied them, so the caller may skip the scan.
    fn insert(&mut self, tuple: Tuple) -> ExecResult<bool> {
        let b = bucket_of(tuple.get(self.temporal_idx));
        let mut advanced = false;
        match self.cur {
            Some(c) if b < c => {
                self.late += 1;
                return Ok(false);
            }
            Some(c) if b > c => {
                self.cur = Some(b);
                advanced = true;
            }
            None => {
                self.cur = Some(b);
                advanced = true;
            }
            Some(_) => {}
        }
        self.key_scratch.clear();
        for e in &self.key {
            self.key_scratch.push(e.eval(&tuple)?);
        }
        let new_epoch = !self.epochs.contains_key(&b);
        let epoch = self.epochs.entry(b).or_default();
        let idx = u32::try_from(epoch.rows.len()).expect("an epoch holds fewer than 2^32 rows");
        if self.probed {
            epoch.next.push(NO_ROW);
            if let Some(h) = key_hash(&self.key_scratch) {
                let chain = epoch.heads.entry(h).or_insert((idx, idx));
                if chain.1 != idx {
                    epoch.next[chain.1 as usize] = idx;
                    chain.1 = idx;
                }
            }
        }
        epoch.keys.append(&mut self.key_scratch);
        epoch.rows.push(tuple);
        epoch.matched.push(false);
        Ok(advanced || new_epoch)
    }

    /// Whether no further tuples of epoch `e` can arrive.
    fn closed(&self, e: i128, finished: bool) -> bool {
        finished || self.cur.is_some_and(|c| c > e)
    }
}

/// Overwrites `out` with `a ++ b`, reusing its allocation.
fn concat_into(out: &mut Tuple, a: &Tuple, b: &Tuple) {
    let mut vals = std::mem::take(out).into_values();
    vals.clear();
    vals.extend_from_slice(a.values());
    vals.extend_from_slice(b.values());
    *out = Tuple::new(vals);
}

/// Per-epoch hash join honouring the temporal alignment
/// `left.epoch = right.epoch + offset` (Section 3.1). Left epoch `e`
/// joins right epoch `e - offset`; the pairing fires once both epochs
/// are closed (their side has advanced past them, or finished). Outer
/// variants NULL-pad unmatched rows when their epoch retires.
pub(crate) struct JoinOp {
    left: Side,
    right: Side,
    offset: i64,
    join_type: JoinType,
    residual: Option<BoundExpr>,
    /// Projections over the concatenated (left ++ right) schema.
    projections: Vec<BoundExpr>,
    left_arity: usize,
    right_arity: usize,
    finished: bool,
    /// Reused `left ++ right` row that residuals and projections read.
    joined: Tuple,
}

impl JoinOp {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        left_temporal_idx: usize,
        right_temporal_idx: usize,
        left_key: Vec<BoundExpr>,
        right_key: Vec<BoundExpr>,
        offset: i64,
        join_type: JoinType,
        residual: Option<BoundExpr>,
        projections: Vec<BoundExpr>,
        left_arity: usize,
        right_arity: usize,
    ) -> Self {
        JoinOp {
            left: Side::new(left_temporal_idx, left_key, false),
            right: Side::new(right_temporal_idx, right_key, true),
            offset,
            join_type,
            residual,
            projections,
            left_arity,
            right_arity,
            finished: false,
            joined: Tuple::default(),
        }
    }

    /// Fires every left epoch whose pairing is complete.
    fn fire_ready(&mut self, out: &mut Vec<Tuple>) -> ExecResult<()> {
        let ready: Vec<i128> = self
            .left
            .epochs
            .keys()
            .copied()
            .filter(|&e| {
                self.left.closed(e, self.finished)
                    && self
                        .right
                        .closed(e - i128::from(self.offset), self.finished)
            })
            .collect::<Vec<_>>();
        let mut ready = ready;
        ready.sort_unstable();
        for e in ready {
            self.fire(e, out)?;
        }
        // Right epochs that no longer have a potential left partner
        // retire: their left epoch (e_r + offset) is closed yet absent.
        let retired: Vec<i128> = self
            .right
            .epochs
            .keys()
            .copied()
            .filter(|&er| {
                let el = er + i128::from(self.offset);
                self.left.closed(el, self.finished) && !self.left.epochs.contains_key(&el)
            })
            .collect::<Vec<_>>();
        let mut retired = retired;
        retired.sort_unstable();
        for er in retired {
            let epoch = self.right.epochs.remove(&er).expect("key just listed");
            self.pad_right(epoch, out)?;
        }
        Ok(())
    }

    fn fire(&mut self, e: i128, out: &mut Vec<Tuple>) -> ExecResult<()> {
        let mut lep = self.left.epochs.remove(&e).expect("epoch listed as ready");
        let rep = self.right.epochs.remove(&(e - i128::from(self.offset)));
        if let Some(mut rep) = rep {
            // Probe: for each left row, walk the right chain of its key
            // hash; the key comparison rejects hash collisions.
            let width = self.left.key.len();
            for (li, lrow) in lep.rows.iter().enumerate() {
                let lkey = &lep.keys[li * width..(li + 1) * width];
                // SQL equality: keys containing NULL match nothing.
                let Some(h) = key_hash(lkey) else {
                    continue;
                };
                let Some(&(first, _)) = rep.heads.get(&h) else {
                    continue;
                };
                let mut ri = first;
                while ri != NO_ROW {
                    let r = ri as usize;
                    ri = rep.next[r];
                    if rep.keys[r * width..(r + 1) * width] != *lkey {
                        continue;
                    }
                    concat_into(&mut self.joined, lrow, &rep.rows[r]);
                    if let Some(res) = &self.residual {
                        if !res.eval_predicate(&self.joined)? {
                            continue;
                        }
                    }
                    lep.matched[li] = true;
                    rep.matched[r] = true;
                    out.push(project(&self.projections, &self.joined)?);
                }
            }
            self.pad_right(rep, out)?;
        }
        // Unmatched left rows.
        if matches!(self.join_type, JoinType::LeftOuter | JoinType::FullOuter) {
            let nulls = Tuple::new(vec![Value::Null; self.right_arity]);
            for (li, lrow) in lep.rows.iter().enumerate() {
                if !lep.matched[li] {
                    concat_into(&mut self.joined, lrow, &nulls);
                    out.push(project(&self.projections, &self.joined)?);
                }
            }
        }
        Ok(())
    }

    /// NULL-pads a retiring right epoch's unmatched rows for right/full
    /// outer joins.
    fn pad_right(&mut self, epoch: Epoch, out: &mut Vec<Tuple>) -> ExecResult<()> {
        if !matches!(self.join_type, JoinType::RightOuter | JoinType::FullOuter) {
            return Ok(());
        }
        let nulls = Tuple::new(vec![Value::Null; self.left_arity]);
        for (ri, rrow) in epoch.rows.iter().enumerate() {
            if !epoch.matched[ri] {
                concat_into(&mut self.joined, &nulls, rrow);
                out.push(project(&self.projections, &self.joined)?);
            }
        }
        Ok(())
    }
}

/// Evaluates the output projections over one joined row.
fn project(projections: &[BoundExpr], joined: &Tuple) -> ExecResult<Tuple> {
    let mut t = Tuple::with_capacity(projections.len());
    for e in projections {
        t.push(e.eval(joined)?);
    }
    Ok(t)
}

impl Operator for JoinOp {
    fn push_batch(
        &mut self,
        port: usize,
        batch: &mut Vec<Tuple>,
        out: &mut Vec<Tuple>,
    ) -> ExecResult<()> {
        for tuple in batch.drain(..) {
            let changed = match port {
                0 => self.left.insert(tuple)?,
                1 => self.right.insert(tuple)?,
                _ => unreachable!("join has two ports"),
            };
            // `fire_ready` after a no-change insert is provably a
            // no-op (ready/retired sets were drained by the previous
            // pass and only grow on advance or epoch creation), so the
            // common case — another row of the current epoch — costs
            // no epoch scan.
            if changed {
                self.fire_ready(out)?;
            }
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<Tuple>) -> ExecResult<()> {
        self.finished = true;
        self.fire_ready(out)?;
        debug_assert!(self.left.epochs.is_empty());
        debug_assert!(self.right.epochs.is_empty());
        Ok(())
    }

    fn late_dropped(&self) -> u64 {
        self.left.late + self.right.late
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use qap_expr::BinOp;

    use super::*;

    /// Rows are `(epoch, k1, k2, id)` on both sides.
    const ARITY: usize = 4;

    fn op(width: usize, offset: i64, join_type: JoinType, residual: bool) -> JoinOp {
        let key: Vec<BoundExpr> = (1..=width).map(BoundExpr::Column).collect();
        // `left.id < right.id`
        let residual = residual.then(|| BoundExpr::Binary {
            op: BinOp::Lt,
            lhs: Box::new(BoundExpr::Column(3)),
            rhs: Box::new(BoundExpr::Column(ARITY + 3)),
        });
        let projections = (0..2 * ARITY).map(BoundExpr::Column).collect();
        JoinOp::new(
            0,
            0,
            key.clone(),
            key,
            offset,
            join_type,
            residual,
            projections,
            ARITY,
            ARITY,
        )
    }

    fn row(epoch: u64, k1: Value, k2: Value, id: u64) -> Tuple {
        Tuple::new(vec![Value::UInt(epoch), k1, k2, Value::UInt(id)])
    }

    /// Pushes `(port, row)` one at a time, then finishes.
    fn run(op: &mut JoinOp, feed: &[(usize, Tuple)]) -> Vec<Tuple> {
        let mut out = Vec::new();
        for (port, t) in feed {
            op.push_batch(*port, &mut vec![t.clone()], &mut out)
                .expect("push");
        }
        op.finish(&mut out).expect("finish");
        out
    }

    #[test]
    fn colliding_key_hashes_do_not_join() {
        // The `UInt` hash tag is zero, so `UInt(int_word(5))` folds the
        // same word as `Int(5)`.
        let (a, b) = (Value::UInt(fx::int_word(5)), Value::Int(5));
        assert_eq!(
            key_hash(std::slice::from_ref(&a)),
            key_hash(std::slice::from_ref(&b))
        );
        let feed = [
            (0, row(0, a.clone(), Value::Null, 1)),
            (1, row(0, b, Value::Null, 2)),
            (1, row(0, a, Value::Null, 3)),
        ];
        let out = run(&mut op(1, 0, JoinType::Inner, false), &feed);
        assert_eq!(
            out,
            vec![feed[0].1.concat(&feed[2].1)],
            "only the equal key joins"
        );
        let out = run(&mut op(1, 0, JoinType::FullOuter, false), &feed[..2]);
        let nulls = Tuple::new(vec![Value::Null; ARITY]);
        assert_eq!(
            out,
            vec![nulls.concat(&feed[1].1), feed[0].1.concat(&nulls)],
            "colliding keys pad on both sides, right epoch first"
        );
    }

    /// One join side of the nested-loop reference.
    #[derive(Default)]
    struct RefSide {
        cur: Option<i128>,
        epochs: BTreeMap<i128, Vec<(Tuple, bool)>>,
    }

    impl RefSide {
        fn closed(&self, e: i128, finished: bool) -> bool {
            finished || self.cur.is_some_and(|c| c > e)
        }
    }

    /// The join restated without an index: the same epoch schedule,
    /// re-checked after every row, with a nested loop over each fired
    /// epoch pair.
    struct Reference {
        width: usize,
        offset: i128,
        join_type: JoinType,
        residual: bool,
        sides: [RefSide; 2],
        out: Vec<Tuple>,
    }

    impl Reference {
        fn push(&mut self, port: usize, t: Tuple) {
            let b = bucket_of(t.get(0));
            let side = &mut self.sides[port];
            if side.cur.is_some_and(|c| b < c) {
                return;
            }
            side.cur = Some(side.cur.map_or(b, |c| c.max(b)));
            side.epochs.entry(b).or_default().push((t, false));
            self.fire_ready(false);
        }

        fn fire_ready(&mut self, finished: bool) {
            let ready: Vec<i128> = self.sides[0]
                .epochs
                .keys()
                .copied()
                .filter(|&e| {
                    self.sides[0].closed(e, finished)
                        && self.sides[1].closed(e - self.offset, finished)
                })
                .collect();
            for e in ready {
                self.fire(e);
            }
            let retired: Vec<i128> = self.sides[1]
                .epochs
                .keys()
                .copied()
                .filter(|&er| {
                    let el = er + self.offset;
                    self.sides[0].closed(el, finished) && !self.sides[0].epochs.contains_key(&el)
                })
                .collect();
            for er in retired {
                let rows = self.sides[1].epochs.remove(&er).expect("listed");
                self.pad_right(&rows);
            }
        }

        fn key<'t>(&self, t: &'t Tuple) -> &'t [Value] {
            &t.values()[1..=self.width]
        }

        fn fire(&mut self, e: i128) {
            let mut left = self.sides[0].epochs.remove(&e).expect("listed");
            if let Some(mut right) = self.sides[1].epochs.remove(&(e - self.offset)) {
                for (l, lm) in &mut left {
                    if self.key(l).iter().any(Value::is_null) {
                        continue;
                    }
                    for (r, rm) in &mut right {
                        let pass = !self.residual || l.get(3).as_u64() < r.get(3).as_u64();
                        if self.key(l) == self.key(r) && pass {
                            *lm = true;
                            *rm = true;
                            self.out.push(l.concat(r));
                        }
                    }
                }
                self.pad_right(&right);
            }
            if matches!(self.join_type, JoinType::LeftOuter | JoinType::FullOuter) {
                let nulls = Tuple::new(vec![Value::Null; ARITY]);
                for (l, _) in left.iter().filter(|(_, m)| !m) {
                    self.out.push(l.concat(&nulls));
                }
            }
        }

        fn pad_right(&mut self, rows: &[(Tuple, bool)]) {
            if matches!(self.join_type, JoinType::RightOuter | JoinType::FullOuter) {
                let nulls = Tuple::new(vec![Value::Null; ARITY]);
                for (r, _) in rows.iter().filter(|(_, m)| !m) {
                    self.out.push(nulls.concat(r));
                }
            }
        }
    }

    fn key_value(k: u8) -> Value {
        match k {
            0..=3 => Value::UInt(u64::from(k)),
            4 | 5 => Value::Int(i64::from(k) - 4),
            _ => Value::Null,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The indexed join emits exactly the reference's rows, in the
        /// same order, for every join type, offset, key width and
        /// residual, with duplicate, NULL and late rows in the input.
        #[test]
        fn index_matches_nested_loop_reference(
            steps in proptest::collection::vec((0usize..2, 0u8..10, 0u8..7, 0u8..7), 0..48),
            shape in (0usize..4, 0usize..3, 1usize..3, proptest::any::<bool>()),
        ) {
            let (jt, off, width, residual) = shape;
            let join_type = [
                JoinType::Inner,
                JoinType::LeftOuter,
                JoinType::RightOuter,
                JoinType::FullOuter,
            ][jt];
            let offset = off as i64 - 1;
            // Each side walks its epochs forward; step 9 emits a late
            // row one epoch behind without moving the walk.
            let mut epoch = [0u64; 2];
            let feed: Vec<(usize, Tuple)> = steps
                .iter()
                .enumerate()
                .map(|(id, &(port, step, k1, k2))| {
                    let e = match step {
                        6 | 7 => {
                            epoch[port] += 1;
                            epoch[port]
                        }
                        8 => {
                            epoch[port] += 2;
                            epoch[port]
                        }
                        9 => epoch[port].saturating_sub(1),
                        _ => epoch[port],
                    };
                    (port, row(e, key_value(k1), key_value(k2), id as u64))
                })
                .collect();
            let got = run(&mut op(width, offset, join_type, residual), &feed);
            let mut reference = Reference {
                width,
                offset: i128::from(offset),
                join_type,
                residual,
                sides: Default::default(),
                out: Vec::new(),
            };
            for (port, t) in &feed {
                reference.push(*port, t.clone());
            }
            reference.fire_ready(true);
            assert_eq!(
                got, reference.out,
                "{join_type:?} offset {offset} width {width} residual {residual} feed {feed:?}"
            );
        }
    }
}
