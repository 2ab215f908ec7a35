//! Operators and their CPU kernels.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;
use std::fmt;

/// Evaluate `$body` with `$f` bound to the scalar function of the
/// elementwise binary operator `$op` (`None` for any other operator).
/// Every binary kernel — the reference interpreter's and a compiled
/// session's blocked one — applies the same closure, so the two agree
/// bit for bit; the closures stay statically dispatched in both.
macro_rules! binary_kernel {
    ($op:expr, $f:ident => $body:expr) => {
        match $op {
            Op::Add => {
                let $f = |a: f32, b: f32| a + b;
                Some($body)
            }
            Op::Sub => {
                let $f = |a: f32, b: f32| a - b;
                Some($body)
            }
            Op::Mul => {
                let $f = |a: f32, b: f32| a * b;
                Some($body)
            }
            Op::Div => {
                let $f = |a: f32, b: f32| a / b;
                Some($body)
            }
            Op::Less => {
                let $f = |a: f32, b: f32| $crate::ops::bool2f(a < b);
                Some($body)
            }
            Op::LessOrEqual => {
                let $f = |a: f32, b: f32| $crate::ops::bool2f(a <= b);
                Some($body)
            }
            Op::Greater => {
                let $f = |a: f32, b: f32| $crate::ops::bool2f(a > b);
                Some($body)
            }
            Op::GreaterOrEqual => {
                let $f = |a: f32, b: f32| $crate::ops::bool2f(a >= b);
                Some($body)
            }
            Op::Equal => {
                let $f = |a: f32, b: f32| $crate::ops::bool2f(a == b);
                Some($body)
            }
            _ => None,
        }
    };
}

/// [`binary_kernel!`] for the elementwise unary operators.
macro_rules! unary_kernel {
    ($op:expr, $f:ident => $body:expr) => {
        match $op {
            Op::Neg => {
                let $f = |x: f32| -x;
                Some($body)
            }
            Op::Relu => {
                let $f = |x: f32| x.max(0.0);
                Some($body)
            }
            Op::Sigmoid => {
                let $f = |x: f32| 1.0 / (1.0 + (-x).exp());
                Some($body)
            }
            Op::Tanh => {
                let $f = f32::tanh;
                Some($body)
            }
            Op::Exp => {
                let $f = f32::exp;
                Some($body)
            }
            _ => None,
        }
    };
}

pub(crate) use {binary_kernel, unary_kernel};

/// A tensor operator.
///
/// The set covers what the paper's NN translations need (§4.2 "NN
/// translation"): GEMM-based tree scoring, linear/logistic regression,
/// MLPs, scalers and one-hot featurizers, plus the reduction/comparison
/// plumbing they require. Every operator has a reference CPU kernel in
/// [`Op::eval`] and an analytic FLOP estimate in [`Op::flops`] used by the
/// simulated-GPU timing model and the cost-based optimizer.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Matrix product `A[m,k] × B[k,n] → [m,n]`.
    MatMul,
    /// Fused `alpha·(A×B) + beta·C` where `C` broadcasts per-row.
    Gemm { alpha: f32, beta: f32 },
    /// Elementwise/broadcast addition.
    Add,
    /// Elementwise/broadcast subtraction.
    Sub,
    /// Elementwise/broadcast multiplication.
    Mul,
    /// Elementwise/broadcast division.
    Div,
    /// Elementwise negation.
    Neg,
    /// Elementwise max(x, 0).
    Relu,
    /// Elementwise logistic sigmoid.
    Sigmoid,
    /// Elementwise tanh.
    Tanh,
    /// Elementwise e^x.
    Exp,
    /// Comparison producing 0.0/1.0: `a < b`.
    Less,
    /// Comparison producing 0.0/1.0: `a <= b`.
    LessOrEqual,
    /// Comparison producing 0.0/1.0: `a > b`.
    Greater,
    /// Comparison producing 0.0/1.0: `a >= b`.
    GreaterOrEqual,
    /// Comparison producing 0.0/1.0: `a == b` (exact).
    Equal,
    /// Select columns of a matrix by index.
    GatherCols { indices: Vec<usize> },
    /// Concatenate along an axis (0 = rows, 1 = cols).
    Concat { axis: usize },
    /// Reshape to a fixed target shape.
    Reshape { shape: Vec<usize> },
    /// Sum along an axis of a matrix → vector.
    ReduceSum { axis: usize },
    /// Mean along an axis of a matrix → vector.
    ReduceMean { axis: usize },
    /// Row-wise argmax of a matrix → vector of indices (as f32).
    ArgMax,
    /// Row-wise softmax of a matrix.
    Softmax,
}

impl Op {
    /// Operator name (for display / diagnostics).
    pub fn name(&self) -> &'static str {
        match self {
            Op::MatMul => "MatMul",
            Op::Gemm { .. } => "Gemm",
            Op::Add => "Add",
            Op::Sub => "Sub",
            Op::Mul => "Mul",
            Op::Div => "Div",
            Op::Neg => "Neg",
            Op::Relu => "Relu",
            Op::Sigmoid => "Sigmoid",
            Op::Tanh => "Tanh",
            Op::Exp => "Exp",
            Op::Less => "Less",
            Op::LessOrEqual => "LessOrEqual",
            Op::Greater => "Greater",
            Op::GreaterOrEqual => "GreaterOrEqual",
            Op::Equal => "Equal",
            Op::GatherCols { .. } => "GatherCols",
            Op::Concat { .. } => "Concat",
            Op::Reshape { .. } => "Reshape",
            Op::ReduceSum { .. } => "ReduceSum",
            Op::ReduceMean { .. } => "ReduceMean",
            Op::ArgMax => "ArgMax",
            Op::Softmax => "Softmax",
        }
    }

    /// Number of inputs this operator expects. `None` = variadic (>=1).
    pub fn arity(&self) -> Option<usize> {
        match self {
            Op::MatMul
            | Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Less
            | Op::LessOrEqual
            | Op::Greater
            | Op::GreaterOrEqual
            | Op::Equal => Some(2),
            Op::Gemm { .. } => Some(3),
            Op::Concat { .. } => None,
            _ => Some(1),
        }
    }

    /// Evaluate the operator on `inputs`.
    pub fn eval(&self, inputs: &[&Tensor]) -> Result<Tensor> {
        if let Some(expected) = self.arity() {
            if inputs.len() != expected {
                return Err(TensorError::ArityMismatch {
                    op: self.name().into(),
                    expected,
                    actual: inputs.len(),
                });
            }
        } else if inputs.is_empty() {
            return Err(TensorError::ArityMismatch {
                op: self.name().into(),
                expected: 1,
                actual: 0,
            });
        }
        match self {
            Op::MatMul => matmul(inputs[0], inputs[1]),
            Op::Gemm { alpha, beta } => gemm(inputs[0], inputs[1], inputs[2], *alpha, *beta),
            Op::GatherCols { indices } => gather_cols(inputs[0], indices),
            Op::Concat { axis } => concat(inputs, *axis),
            Op::Reshape { shape } => inputs[0].clone().reshape(shape.clone()),
            Op::ReduceSum { axis } => reduce(inputs[0], *axis, false),
            Op::ReduceMean { axis } => reduce(inputs[0], *axis, true),
            Op::ArgMax => argmax(inputs[0]),
            Op::Softmax => softmax(inputs[0]),
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::Less
            | Op::LessOrEqual
            | Op::Greater
            | Op::GreaterOrEqual
            | Op::Equal => binary_kernel!(self, f => {
                broadcast_binary(inputs[0], inputs[1], self.name(), f)
            })
            .expect("a binary operator"),
            Op::Neg | Op::Relu | Op::Sigmoid | Op::Tanh | Op::Exp => {
                unary_kernel!(self, f => Ok(unary(inputs[0], f))).expect("a unary operator")
            }
        }
    }

    /// Analytic floating-point operation count for this op on the given
    /// input shapes (used by the simulated-GPU timing model and cost-based
    /// optimizer; precision matters less than proportionality).
    pub fn flops(&self, inputs: &[&Tensor]) -> u64 {
        let shapes: Vec<&[usize]> = inputs.iter().map(|t| t.shape()).collect();
        self.flops_for_shapes(&shapes)
    }

    /// [`Op::flops`] from the input shapes alone, so a compiled session
    /// can charge a blocked run exactly what the whole-matrix run costs.
    pub(crate) fn flops_for_shapes(&self, shapes: &[&[usize]]) -> u64 {
        let numel = |s: &[usize]| s.iter().product::<usize>() as u64;
        match self {
            Op::MatMul | Op::Gemm { .. } => match shapes {
                [&[m, k], &[_, n], ..] => 2 * (m * k * n) as u64,
                _ => 0,
            },
            Op::Softmax | Op::Sigmoid | Op::Tanh | Op::Exp => {
                shapes.first().map(|s| 4 * numel(s)).unwrap_or(0)
            }
            _ => shapes.iter().map(|s| numel(s)).max().unwrap_or(0),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[inline]
pub(crate) fn bool2f(b: bool) -> f32 {
    if b {
        1.0
    } else {
        0.0
    }
}

fn unary(a: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let mut out = a.clone();
    for x in out.data_mut() {
        *x = f(*x);
    }
    out
}

/// How a binary operator pairs its operands, decided from their shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Broadcast {
    /// Identical shapes: elementwise.
    Same,
    /// The right operand is one element.
    ScalarRight,
    /// The left operand is one element.
    ScalarLeft,
    /// `[m,n] ∘ [n]`: the right vector broadcasts across rows.
    RowRight,
    /// `[n] ∘ [m,n]`: the left vector broadcasts across rows.
    RowLeft,
}

impl Broadcast {
    /// The pairing [`broadcast_binary`] applies to operands of these
    /// shapes (checked in this order), or `None` if they do not broadcast.
    pub(crate) fn of(a: &[usize], b: &[usize]) -> Option<Broadcast> {
        let numel = |s: &[usize]| s.iter().product::<usize>();
        if a == b {
            Some(Broadcast::Same)
        } else if numel(b) == 1 {
            Some(Broadcast::ScalarRight)
        } else if numel(a) == 1 {
            Some(Broadcast::ScalarLeft)
        } else if a.len() == 2 && b.len() == 1 && a[1] == b[0] {
            Some(Broadcast::RowRight)
        } else if b.len() == 2 && a.len() == 1 && b[1] == a[0] {
            Some(Broadcast::RowLeft)
        } else {
            None
        }
    }

    /// Append `a ∘ b` to `out`. For the row forms `a` (or `b`) holds
    /// whole rows of the vector's length; for the scalar forms the
    /// one-element operand is read once.
    #[inline]
    pub(crate) fn apply(
        self,
        a: &[f32],
        b: &[f32],
        f: impl Fn(f32, f32) -> f32,
        out: &mut Vec<f32>,
    ) {
        match self {
            Broadcast::Same => out.extend(a.iter().zip(b).map(|(&x, &y)| f(x, y))),
            Broadcast::ScalarRight => {
                let s = b[0];
                out.extend(a.iter().map(|&x| f(x, s)));
            }
            Broadcast::ScalarLeft => {
                let s = a[0];
                out.extend(b.iter().map(|&y| f(s, y)));
            }
            // A zero-length vector pairs with zero-width rows: no output.
            Broadcast::RowRight if !b.is_empty() => {
                for row in a.chunks_exact(b.len()) {
                    out.extend(row.iter().zip(b).map(|(&x, &y)| f(x, y)));
                }
            }
            Broadcast::RowLeft if !a.is_empty() => {
                for row in b.chunks_exact(a.len()) {
                    out.extend(a.iter().zip(row).map(|(&x, &y)| f(x, y)));
                }
            }
            Broadcast::RowRight | Broadcast::RowLeft => {}
        }
    }
}

/// Broadcasting for binary ops. Supported shapes:
/// * identical shapes (elementwise);
/// * `[m,n] ∘ [n]` — the vector broadcasts across rows;
/// * `[m,n] ∘ [1]` and `[k] ∘ [1]` — scalar broadcast;
/// * the mirrored versions of the above.
fn broadcast_binary(
    a: &Tensor,
    b: &Tensor,
    op: &str,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Tensor> {
    let Some(pairing) = Broadcast::of(a.shape(), b.shape()) else {
        return Err(TensorError::ShapeMismatch {
            expected: format!("{op}-broadcastable shapes"),
            actual: format!("{:?} vs {:?}", a.shape(), b.shape()),
        });
    };
    let shape = match pairing {
        Broadcast::ScalarLeft | Broadcast::RowLeft => b.shape(),
        _ => a.shape(),
    };
    let mut data = Vec::with_capacity(shape.iter().product());
    pairing.apply(a.data(), b.data(), f, &mut data);
    Tensor::new(shape.to_vec(), data)
}

/// `A[m,k] × B[k,n]`. Rank-1 `A` is treated as `[1,k]`; rank-1 `B` as `[k,1]`.
fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = lhs_dims(a);
    let n = rhs_cols(b, k)?;
    let mut out = vec![0.0f32; m * n];
    matmul_rows_sparse(a.data(), m, k, b.data(), n, &mut out);
    Tensor::new(product_shape(a.rank(), b.rank(), m, n), out)
}

/// `(m, k)` of a product's left operand (rank-1 is one row).
pub(crate) fn lhs_dims(a: &Tensor) -> (usize, usize) {
    if a.rank() == 2 {
        (a.rows(), a.cols())
    } else {
        (1, a.numel())
    }
}

/// Columns of a product's right operand, checking its inner dimension
/// against the left operand's `k` (rank-1 `B` is one column).
pub(crate) fn rhs_cols(b: &Tensor, k: usize) -> Result<usize> {
    let (k2, n) = if b.rank() == 2 {
        (b.rows(), b.cols())
    } else {
        (b.numel(), 1)
    };
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            expected: format!("inner dims to match ({k})"),
            actual: format!("{k2}"),
        });
    }
    Ok(n)
}

/// Shape of an `[m, n]` product given the operands' ranks: a rank-1 `B`
/// yields a vector, and two vectors a one-element vector.
pub(crate) fn product_shape(a_rank: usize, b_rank: usize, m: usize, n: usize) -> Vec<usize> {
    match (a_rank, b_rank) {
        (1, 1) => vec![1],
        (_, 1) => vec![m],
        _ => vec![m, n],
    }
}

/// The reference GEMM row kernel: accumulate `A[m,k] × B[k,n]` into
/// `out`, which must start zeroed.
///
/// The i-k-j loop order streams both the B row and the output row
/// sequentially, and exact zeros in `A` are skipped. Skipping is exact
/// only while `B` is finite (`0 × ∞` is NaN), so this kernel serves every
/// weight matrix holding a NaN or ±∞; finite weights take
/// [`PackedWeights`]. Never inlined, so the interpreter and a compiled
/// session run the very same machine code.
#[inline(never)]
pub(crate) fn matmul_rows_sparse(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue; // sparse-weight fast path; exact zeros are common after pruning
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// A constant, all-finite GEMM right operand `B[k,n]`, packed once into
/// column panels of `width` columns (`k × width` values each, the last
/// one zero-padded). Panels are 8 columns wide, or as wide as `B` when it
/// is narrower: 1 for a matrix–vector product, 4 for up to 4 columns.
///
/// Its kernel is branch-free: every `A` value is multiplied in, zeros
/// included, into accumulators held in registers. That equals the
/// reference kernel bit for bit. Each output starts at +0.0 and sums its
/// terms in the same `k` order; a sum that starts at +0.0 is never −0.0
/// (in IEEE arithmetic `x + y` is −0.0 only if both are), and adding a
/// zero term — `±0 × b` is ±0.0 for finite `b` — to anything but −0.0
/// leaves its bits unchanged. Hence [`PackedWeights::pack`] refuses any
/// matrix holding a NaN or ±∞.
#[derive(Debug)]
pub(crate) struct PackedWeights {
    k: usize,
    n: usize,
    width: usize,
    panels: Vec<f32>,
}

impl PackedWeights {
    /// Pack `b` (rank-1 is one column), or `None` if any entry is not finite.
    pub(crate) fn pack(b: &Tensor) -> Option<PackedWeights> {
        if !b.data().iter().all(|v| v.is_finite()) {
            return None;
        }
        let (k, n) = if b.rank() == 2 {
            (b.rows(), b.cols())
        } else {
            (b.numel(), 1)
        };
        let width = match n {
            1 => 1,
            2..=4 => 4,
            _ => 8,
        };
        let mut panels = vec![0.0f32; n.div_ceil(width) * k * width];
        for (p, panel) in panels.chunks_exact_mut((k * width).max(1)).enumerate() {
            let cols = width.min(n - p * width);
            for (kk, dst) in panel.chunks_exact_mut(width).enumerate() {
                dst[..cols].copy_from_slice(&b.data()[kk * n + p * width..][..cols]);
            }
        }
        Some(PackedWeights {
            k,
            n,
            width,
            panels,
        })
    }

    /// `out[m,n] = A[m,k] × B`, overwriting `out`.
    pub(crate) fn matmul_rows(&self, a: &[f32], m: usize, out: &mut [f32]) {
        debug_assert_eq!(a.len(), m * self.k);
        debug_assert_eq!(out.len(), m * self.n);
        if self.k == 0 {
            out.fill(0.0);
            return;
        }
        match self.width {
            1 => self.panels_times::<1, 8>(a, m, out),
            4 => self.panels_times::<4, 4>(a, m, out),
            _ => self.panels_times::<8, 4>(a, m, out),
        }
    }

    /// The kernel for panels `W` columns wide, `R` rows at a time.
    fn panels_times<const W: usize, const R: usize>(&self, a: &[f32], m: usize, out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        for (p, panel) in self.panels.chunks_exact(k * W).enumerate() {
            let col = p * W;
            let cols = W.min(n - col);
            let mut i = 0;
            while i + R <= m {
                let rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
                let acc = tile_times::<W, R>(rows, panel);
                for (r, acc) in acc.iter().enumerate() {
                    store(&mut out[(i + r) * n + col..], acc, cols);
                }
                i += R;
            }
            for i in i..m {
                let [acc] = tile_times::<W, 1>([&a[i * k..(i + 1) * k]], panel);
                store(&mut out[i * n + col..], &acc, cols);
            }
        }
    }
}

/// Write the first `cols` of a panel row's `W` sums (a full panel as one
/// fixed-size copy).
#[inline(always)]
fn store<const W: usize>(out: &mut [f32], acc: &[f32; W], cols: usize) {
    if cols == W {
        out[..W].copy_from_slice(acc);
    } else {
        out[..cols].copy_from_slice(&acc[..cols]);
    }
}

/// `R` rows of `A` (each `k` long) times one `k × W` panel, summed in `k`
/// order in registers.
#[inline(always)]
fn tile_times<const W: usize, const R: usize>(rows: [&[f32]; R], panel: &[f32]) -> [[f32; W]; R] {
    let k = panel.len() / W;
    assert!(rows.iter().all(|row| row.len() == k));
    let mut acc = [[0.0f32; W]; R];
    for kk in 0..k {
        let bv: &[f32; W] = panel[kk * W..(kk + 1) * W]
            .try_into()
            .expect("W-wide panel row");
        for r in 0..R {
            let av = rows[r][kk];
            for j in 0..W {
                acc[r][j] += av * bv[j];
            }
        }
    }
    acc
}

fn gemm(a: &Tensor, b: &Tensor, c: &Tensor, alpha: f32, beta: f32) -> Result<Tensor> {
    let mut prod = matmul(a, b)?;
    if alpha != 1.0 {
        for x in prod.data_mut() {
            *x *= alpha;
        }
    }
    if beta == 0.0 {
        return Ok(prod);
    }
    let scaled_c = gemm_bias(c, beta);
    broadcast_binary(&prod, &scaled_c, "Gemm", |x, y| x + y)
}

/// Gemm's `beta·C` term.
pub(crate) fn gemm_bias(c: &Tensor, beta: f32) -> Tensor {
    if beta == 1.0 {
        c.clone()
    } else {
        unary(c, |x| x * beta)
    }
}

/// `prod + bias` with [`broadcast_binary`]'s semantics, in place when the
/// sum has `prod`'s shape; otherwise through [`broadcast_binary`] itself.
pub(crate) fn add_bias(mut prod: Tensor, bias: &Tensor) -> Result<Tensor> {
    let add = |x: f32, y: f32| x + y;
    match Broadcast::of(prod.shape(), bias.shape()) {
        Some(Broadcast::Same) => {
            for (x, &y) in prod.data_mut().iter_mut().zip(bias.data()) {
                *x = add(*x, y);
            }
        }
        Some(Broadcast::ScalarRight) => {
            let s = bias.data()[0];
            for x in prod.data_mut() {
                *x = add(*x, s);
            }
        }
        Some(Broadcast::RowRight) => {
            for row in prod.data_mut().chunks_exact_mut(bias.numel()) {
                for (x, &y) in row.iter_mut().zip(bias.data()) {
                    *x = add(*x, y);
                }
            }
        }
        _ => return broadcast_binary(&prod, bias, "Gemm", add),
    }
    Ok(prod)
}

fn gather_cols(a: &Tensor, indices: &[usize]) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            expected: "rank 2".into(),
            actual: format!("rank {}", a.rank()),
        });
    }
    let (m, n) = (a.rows(), a.cols());
    if let Some(&bad) = indices.iter().find(|&&i| i >= n) {
        return Err(TensorError::ShapeMismatch {
            expected: format!("column index < {n}"),
            actual: format!("{bad}"),
        });
    }
    let mut out = Vec::with_capacity(m * indices.len());
    gather_rows(a.data(), m, n, indices, &mut out);
    Tensor::matrix(m, indices.len(), out)
}

/// Append columns `indices` of each of the `m` `n`-wide rows of `a`.
pub(crate) fn gather_rows(a: &[f32], m: usize, n: usize, indices: &[usize], out: &mut Vec<f32>) {
    match indices {
        // One column — what NN translation gathers per pipeline step.
        &[j] => out.extend((0..m).map(|i| a[i * n + j])),
        _ => for_rows(a, m, n, |row| out.extend(indices.iter().map(|&j| row[j]))),
    }
}

/// Append the `m` rows of the side-by-side concatenation of `parts`,
/// each a row-major block and its width.
pub(crate) fn concat_rows(parts: &[(&[f32], usize)], m: usize, out: &mut Vec<f32>) {
    let total: usize = parts.iter().map(|&(_, n)| n).sum();
    let start = out.len();
    out.resize(start + m * total, 0.0);
    let mut offset = 0;
    for &(data, n) in parts {
        for i in 0..m {
            let dst = start + i * total + offset;
            match n {
                // One column per part — what NN translation concatenates.
                1 => out[dst] = data[i],
                _ => out[dst..dst + n].copy_from_slice(&data[i * n..(i + 1) * n]),
            }
        }
        offset += n;
    }
}

fn concat(inputs: &[&Tensor], axis: usize) -> Result<Tensor> {
    match axis {
        0 => Tensor::vstack(&inputs.iter().map(|&t| t.clone()).collect::<Vec<_>>()),
        1 => {
            let m = inputs[0].rows();
            if inputs.iter().any(|t| t.rank() != 2 || t.rows() != m) {
                return Err(TensorError::ShapeMismatch {
                    expected: format!("[{m}, *] matrices"),
                    actual: "mismatched row counts".into(),
                });
            }
            let parts: Vec<(&[f32], usize)> = inputs.iter().map(|t| (t.data(), t.cols())).collect();
            let total: usize = parts.iter().map(|&(_, n)| n).sum();
            let mut out = Vec::with_capacity(m * total);
            concat_rows(&parts, m, &mut out);
            Tensor::matrix(m, total, out)
        }
        _ => Err(TensorError::InvalidGraph(format!(
            "Concat axis must be 0 or 1, got {axis}"
        ))),
    }
}

fn reduce(a: &Tensor, axis: usize, mean: bool) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            expected: "rank 2".into(),
            actual: format!("rank {}", a.rank()),
        });
    }
    let (m, n) = (a.rows(), a.cols());
    match axis {
        0 => {
            let mut out = vec![0.0f32; n];
            for i in 0..m {
                for (o, &v) in out.iter_mut().zip(a.row(i)?) {
                    *o += v;
                }
            }
            if mean && m > 0 {
                for o in &mut out {
                    *o /= m as f32;
                }
            }
            Ok(Tensor::vector(out))
        }
        1 => {
            let mut out = Vec::with_capacity(m);
            reduce_rows(a.data(), m, n, mean, &mut out);
            Ok(Tensor::vector(out))
        }
        _ => Err(TensorError::InvalidGraph(format!(
            "Reduce axis must be 0 or 1, got {axis}"
        ))),
    }
}

/// Append the sum (or mean) of each of the `m` `n`-wide rows of `a`.
pub(crate) fn reduce_rows(a: &[f32], m: usize, n: usize, mean: bool, out: &mut Vec<f32>) {
    for_rows(a, m, n, |row| {
        let s: f32 = row.iter().sum();
        out.push(if mean && n > 0 { s / n as f32 } else { s });
    });
}

/// Call `f` on each of the `m` `n`-wide rows of `a` (a row count of its
/// own, since rows of width 0 still count).
#[inline]
fn for_rows(a: &[f32], m: usize, n: usize, mut f: impl FnMut(&[f32])) {
    for i in 0..m {
        f(&a[i * n..(i + 1) * n]);
    }
}

fn argmax(a: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            expected: "rank 2".into(),
            actual: format!("rank {}", a.rank()),
        });
    }
    let mut out = Vec::with_capacity(a.rows());
    argmax_rows(a.data(), a.rows(), a.cols(), &mut out);
    Ok(Tensor::vector(out))
}

/// Append the index (as `f32`) of the first maximum of each of the `m`
/// `n`-wide rows of `a`.
pub(crate) fn argmax_rows(a: &[f32], m: usize, n: usize, out: &mut Vec<f32>) {
    for_rows(a, m, n, |row| {
        let mut best = 0usize;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        out.push(best as f32);
    });
}

fn softmax(a: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            expected: "rank 2".into(),
            actual: format!("rank {}", a.rank()),
        });
    }
    let mut out = Vec::with_capacity(a.numel());
    softmax_rows(a.data(), a.rows(), a.cols(), &mut out);
    Tensor::matrix(a.rows(), a.cols(), out)
}

/// Append the softmax of each of the `m` `n`-wide rows of `a`.
pub(crate) fn softmax_rows(a: &[f32], m: usize, n: usize, out: &mut Vec<f32>) {
    for_rows(a, m, n, |row| {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        out.extend(exps.into_iter().map(|e| e / sum));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(r: usize, c: usize, d: Vec<f32>) -> Tensor {
        Tensor::matrix(r, c, d).unwrap()
    }

    #[test]
    fn matmul_basic() {
        let a = m(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let out = Op::MatMul.eval(&[&a, &b]).unwrap();
        assert_eq!(out.shape(), &[2, 2]);
        assert_eq!(out.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_inner_dim_mismatch() {
        let a = m(2, 3, vec![0.0; 6]);
        let b = m(2, 2, vec![0.0; 4]);
        assert!(Op::MatMul.eval(&[&a, &b]).is_err());
    }

    #[test]
    fn matmul_vector_forms() {
        let a = Tensor::vector(vec![1., 2.]);
        let b = m(2, 2, vec![1., 0., 0., 1.]);
        let out = Op::MatMul.eval(&[&a, &b]).unwrap();
        assert_eq!(out.shape(), &[1, 2]);
        let bv = Tensor::vector(vec![3., 4.]);
        let out2 = Op::MatMul
            .eval(&[&m(2, 2, vec![1., 0., 0., 1.]), &bv])
            .unwrap();
        assert_eq!(out2.shape(), &[2]);
        assert_eq!(out2.data(), &[3., 4.]);
    }

    #[test]
    fn matmul_skips_zero_weights() {
        // The zero fast path must not change results.
        let a = m(1, 3, vec![0.0, 2.0, 0.0]);
        let b = m(3, 1, vec![5.0, 7.0, 9.0]);
        let out = Op::MatMul.eval(&[&a, &b]).unwrap();
        assert_eq!(out.data(), &[14.0]);
    }

    #[test]
    fn gemm_matches_matmul_plus_bias() {
        let a = m(2, 2, vec![1., 2., 3., 4.]);
        let b = m(2, 2, vec![1., 0., 0., 1.]);
        let bias = Tensor::vector(vec![10., 20.]);
        let out = Op::Gemm {
            alpha: 1.0,
            beta: 1.0,
        }
        .eval(&[&a, &b, &bias])
        .unwrap();
        assert_eq!(out.data(), &[11., 22., 13., 24.]);
        // alpha/beta scaling
        let out = Op::Gemm {
            alpha: 2.0,
            beta: 0.5,
        }
        .eval(&[&a, &b, &bias])
        .unwrap();
        assert_eq!(out.data(), &[7., 14., 11., 18.]);
    }

    #[test]
    fn broadcast_add_row_vector() {
        let a = m(2, 2, vec![1., 2., 3., 4.]);
        let v = Tensor::vector(vec![10., 20.]);
        assert_eq!(
            Op::Add.eval(&[&a, &v]).unwrap().data(),
            &[11., 22., 13., 24.]
        );
        // mirrored
        assert_eq!(Op::Sub.eval(&[&v, &a]).unwrap().data(), &[9., 18., 7., 16.]);
    }

    #[test]
    fn broadcast_scalar() {
        let a = m(1, 3, vec![1., 2., 3.]);
        let s = Tensor::scalar(2.0);
        assert_eq!(Op::Mul.eval(&[&a, &s]).unwrap().data(), &[2., 4., 6.]);
        assert_eq!(Op::Div.eval(&[&a, &s]).unwrap().data(), &[0.5, 1., 1.5]);
    }

    #[test]
    fn broadcast_incompatible() {
        let a = m(2, 3, vec![0.0; 6]);
        let v = Tensor::vector(vec![0.0; 2]);
        assert!(Op::Add.eval(&[&a, &v]).is_err());
    }

    #[test]
    fn comparisons_produce_indicator() {
        let a = Tensor::vector(vec![1., 5., 3.]);
        let b = Tensor::vector(vec![2., 2., 3.]);
        assert_eq!(Op::Less.eval(&[&a, &b]).unwrap().data(), &[1., 0., 0.]);
        assert_eq!(
            Op::LessOrEqual.eval(&[&a, &b]).unwrap().data(),
            &[1., 0., 1.]
        );
        assert_eq!(Op::Greater.eval(&[&a, &b]).unwrap().data(), &[0., 1., 0.]);
        assert_eq!(
            Op::GreaterOrEqual.eval(&[&a, &b]).unwrap().data(),
            &[0., 1., 1.]
        );
        assert_eq!(Op::Equal.eval(&[&a, &b]).unwrap().data(), &[0., 0., 1.]);
    }

    #[test]
    fn activations() {
        let a = Tensor::vector(vec![-1., 0., 1.]);
        assert_eq!(Op::Relu.eval(&[&a]).unwrap().data(), &[0., 0., 1.]);
        let s = Op::Sigmoid.eval(&[&a]).unwrap();
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!(s.data()[0] < 0.5 && s.data()[2] > 0.5);
        assert_eq!(Op::Neg.eval(&[&a]).unwrap().data(), &[1., 0., -1.]);
    }

    #[test]
    fn gather_and_concat() {
        let a = m(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let g = Op::GatherCols {
            indices: vec![2, 0],
        }
        .eval(&[&a])
        .unwrap();
        assert_eq!(g.data(), &[3., 1., 6., 4.]);
        assert!(Op::GatherCols { indices: vec![5] }.eval(&[&a]).is_err());

        let b = m(2, 1, vec![9., 10.]);
        let c = Op::Concat { axis: 1 }.eval(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), &[2, 4]);
        assert_eq!(c.row(0).unwrap(), &[1., 2., 3., 9.]);
        let r = Op::Concat { axis: 0 }.eval(&[&a, &a]).unwrap();
        assert_eq!(r.shape(), &[4, 3]);
    }

    #[test]
    fn reductions() {
        let a = m(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(
            Op::ReduceSum { axis: 0 }.eval(&[&a]).unwrap().data(),
            &[5., 7., 9.]
        );
        assert_eq!(
            Op::ReduceSum { axis: 1 }.eval(&[&a]).unwrap().data(),
            &[6., 15.]
        );
        assert_eq!(
            Op::ReduceMean { axis: 1 }.eval(&[&a]).unwrap().data(),
            &[2., 5.]
        );
    }

    #[test]
    fn argmax_and_softmax() {
        let a = m(2, 3, vec![1., 3., 2., 9., 0., 1.]);
        assert_eq!(Op::ArgMax.eval(&[&a]).unwrap().data(), &[1., 0.]);
        let s = Op::Softmax.eval(&[&a]).unwrap();
        let row0: f32 = s.row(0).unwrap().iter().sum();
        assert!((row0 - 1.0).abs() < 1e-6);
        assert!(s.at(0, 1) > s.at(0, 0));
    }

    #[test]
    fn arity_enforced() {
        let a = Tensor::vector(vec![1.0]);
        assert!(matches!(
            Op::MatMul.eval(&[&a]),
            Err(TensorError::ArityMismatch { .. })
        ));
        assert!(Op::Concat { axis: 0 }.eval(&[]).is_err());
    }

    #[test]
    fn flops_estimates() {
        let a = m(4, 8, vec![0.0; 32]);
        let b = m(8, 2, vec![0.0; 16]);
        assert_eq!(Op::MatMul.flops(&[&a, &b]), 2 * 4 * 8 * 2);
        assert_eq!(Op::Add.flops(&[&a, &a]), 32);
        assert_eq!(Op::Sigmoid.flops(&[&a]), 128);
    }
}
