//! Compiled graphs: the schedule an [`crate::InferenceSession`] runs.
//!
//! [`Graph::run`] is the reference interpreter: every call sorts the
//! nodes, clones every initializer into a name-keyed environment and
//! dispatches each operator on its inputs' shapes. A session lowers its
//! graph once instead:
//!
//! * the execution order is fixed and every value gets a slot index
//!   (graph input, constant or node output); constants are borrowed from
//!   the graph, and each intermediate is dropped after its last consumer;
//! * every constant right operand of a `MatMul` / `Gemm` is checked for
//!   finiteness and, if finite, packed into column panels for the
//!   branch-free [`PackedWeights`] kernel; Gemm's `beta·C` is computed
//!   once;
//! * a graph whose every node is *row-separable* — row `i` of its output
//!   depends on row `i` of its inputs only — runs in blocks of
//!   [`BLOCK_ROWS`] rows, so each node's intermediate stays cache-sized
//!   and each node keeps one buffer, reused across blocks.
//!
//! Row-separable operators: `GatherCols`; `Concat` on axis 1; an
//! elementwise operator whose other operand is a constant (scalar or row
//! vector) or a same-shaped row value; `MatMul` and `Gemm` with a
//! constant right operand (and constant `C`); the unary operators;
//! `ArgMax`; `Softmax`; `ReduceSum` / `ReduceMean` on axis 1. Any other
//! graph runs whole, node by node.
//!
//! Both paths return exactly what [`Graph::run`] returns, bit for bit,
//! FLOP count included: the blocked path charges each node from the
//! whole-matrix shapes, so the simulated GPU prices a blocked run like
//! the whole one. Shapes the blocked path does not recognise (anything
//! [`Graph::run`] would reject, say) send the run down the whole path,
//! which fails the way the reference does.

use crate::error::TensorError;
use crate::graph::Graph;
use crate::ops::{
    add_bias, argmax_rows, binary_kernel, concat_rows, gather_rows, gemm_bias, lhs_dims,
    matmul_rows_sparse, product_shape, reduce_rows, rhs_cols, softmax_rows, unary_kernel,
    Broadcast, Op, PackedWeights,
};
use crate::tensor::Tensor;
use crate::Result;
use std::collections::HashMap;

/// Rows per block when a row-separable graph runs blocked. Inputs of at
/// most this many rows run whole.
pub const BLOCK_ROWS: usize = 256;

/// Where a node argument lives at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// The `i`-th graph input.
    Input(usize),
    /// The `i`-th constant of [`Compiled::consts`].
    Const(usize),
    /// The output of the `i`-th step.
    Node(usize),
}

/// One node, lowered.
#[derive(Debug)]
struct Step {
    op: Op,
    args: Vec<Slot>,
    /// `MatMul` / `Gemm` right operand when it is a finite constant.
    packed: Option<PackedWeights>,
    /// Gemm's `beta·C` when `C` is constant and `beta != 0`.
    bias: Option<Tensor>,
    /// Steps whose outputs are last read here (dropped after it runs).
    frees: Vec<usize>,
}

/// A graph lowered into a fixed schedule over slots.
#[derive(Debug)]
pub(crate) struct Compiled {
    /// Initializer names, in [`Slot::Const`] order.
    consts: Vec<String>,
    steps: Vec<Step>,
    outputs: Vec<Slot>,
    /// One graph input, row-separable steps only, outputs that vary by row.
    row_separable: bool,
}

impl Compiled {
    /// Lower a validated graph.
    pub(crate) fn new<'g>(graph: &'g Graph) -> Result<Compiled> {
        let mut slots: HashMap<&'g str, Slot> = graph
            .inputs
            .iter()
            .enumerate()
            .map(|(i, name)| (name.as_str(), Slot::Input(i)))
            .collect();
        let mut consts: Vec<String> = Vec::new();
        let mut resolve = |name: &str, slots: &mut HashMap<&'g str, Slot>| -> Result<Slot> {
            if let Some(&slot) = slots.get(name) {
                return Ok(slot);
            }
            let (key, _) = graph
                .initializers
                .get_key_value(name)
                .ok_or_else(|| TensorError::NameNotFound(name.to_string()))?;
            let slot = Slot::Const(consts.len());
            consts.push(key.clone());
            slots.insert(key.as_str(), slot);
            Ok(slot)
        };

        let mut steps: Vec<Step> = Vec::with_capacity(graph.nodes.len());
        for i in graph.topo_order()? {
            let node = &graph.nodes[i];
            let args = node
                .inputs
                .iter()
                .map(|name| resolve(name, &mut slots))
                .collect::<Result<Vec<_>>>()?;
            let constant = |i: usize| match args.get(i) {
                Some(Slot::Const(_)) => graph.initializers.get(&node.inputs[i]),
                _ => None,
            };
            let (packed, bias) = match node.op {
                Op::MatMul => (constant(1).and_then(PackedWeights::pack), None),
                Op::Gemm { beta, .. } => (
                    constant(1).and_then(PackedWeights::pack),
                    constant(2)
                        .filter(|_| beta != 0.0)
                        .map(|c| gemm_bias(c, beta)),
                ),
                _ => (None, None),
            };
            slots.insert(node.output.as_str(), Slot::Node(steps.len()));
            steps.push(Step {
                op: node.op.clone(),
                args,
                packed,
                bias,
                frees: Vec::new(),
            });
        }
        let outputs = graph
            .outputs
            .iter()
            .map(|name| resolve(name, &mut slots))
            .collect::<Result<Vec<_>>>()?;

        // Free each intermediate after its last reader; outputs live on.
        let mut last_read: Vec<Option<usize>> = vec![None; steps.len()];
        for (i, step) in steps.iter().enumerate() {
            for &arg in &step.args {
                if let Slot::Node(j) = arg {
                    last_read[j] = Some(i);
                }
            }
        }
        for &out in &outputs {
            if let Slot::Node(j) = out {
                last_read[j] = None;
            }
        }
        for (j, reader) in last_read.into_iter().enumerate() {
            if let Some(i) = reader {
                steps[i].frees.push(j);
            }
        }

        let row_separable = graph.inputs.len() == 1
            && steps.iter().all(Step::row_separable)
            && outputs.iter().all(|o| !matches!(o, Slot::Const(_)));
        Ok(Compiled {
            consts,
            steps,
            outputs,
            row_separable,
        })
    }

    /// Execute on `inputs` (in graph-input order), returning the outputs
    /// and the FLOP count. Inputs of more than [`BLOCK_ROWS`] rows run
    /// blocked when the graph allows it.
    pub(crate) fn run(&self, graph: &Graph, inputs: &[&Tensor]) -> Result<(Vec<Tensor>, u64)> {
        let consts: Vec<&Tensor> = self
            .consts
            .iter()
            .map(|name| &graph.initializers[name])
            .collect();
        if let [x] = inputs {
            if self.row_separable && x.rank() == 2 && x.rows() > BLOCK_ROWS {
                if let Some(blocked) = Blocked::lower(self, &consts, x.cols(), x.rows()) {
                    return Ok(blocked.run(x));
                }
            }
        }
        self.run_whole(&consts, inputs)
    }

    /// Node by node over whole tensors.
    fn run_whole(&self, consts: &[&Tensor], inputs: &[&Tensor]) -> Result<(Vec<Tensor>, u64)> {
        let mut values: Vec<Option<Tensor>> = Vec::with_capacity(self.steps.len());
        let released = |i: usize| TensorError::Internal(format!("step {i} read after release"));
        let mut flops = 0u64;
        for step in &self.steps {
            let out = {
                let args = step
                    .args
                    .iter()
                    .map(|&slot| match slot {
                        Slot::Input(i) => Ok(inputs[i]),
                        Slot::Const(i) => Ok(consts[i]),
                        Slot::Node(i) => values[i].as_ref().ok_or_else(|| released(i)),
                    })
                    .collect::<Result<Vec<&Tensor>>>()?;
                flops += step.op.flops(&args);
                step.eval(&args)?
            };
            values.push(Some(out));
            for &j in &step.frees {
                values[j] = None;
            }
        }
        // Move each output out of its slot, cloning only values that are
        // also a later output, an input or a constant.
        let mut outputs = Vec::with_capacity(self.outputs.len());
        for (o, &slot) in self.outputs.iter().enumerate() {
            outputs.push(match slot {
                Slot::Input(i) => inputs[i].clone(),
                Slot::Const(i) => consts[i].clone(),
                Slot::Node(i) if self.outputs[o + 1..].contains(&slot) => {
                    values[i].clone().ok_or_else(|| released(i))?
                }
                Slot::Node(i) => values[i].take().ok_or_else(|| released(i))?,
            });
        }
        Ok((outputs, flops))
    }
}

impl Step {
    /// The operator on whole tensors: [`Op::eval`], or the packed GEMM
    /// with Gemm's scaling and bias applied in place.
    fn eval(&self, args: &[&Tensor]) -> Result<Tensor> {
        let Some(packed) = &self.packed else {
            return self.op.eval(args);
        };
        let a = args[0];
        let (m, k) = lhs_dims(a);
        let n = rhs_cols(args[1], k)?;
        let mut out = vec![0.0f32; m * n];
        packed.matmul_rows(a.data(), m, &mut out);
        let mut prod = Tensor::new(product_shape(a.rank(), args[1].rank(), m, n), out)?;
        let Op::Gemm { alpha, beta } = self.op else {
            return Ok(prod);
        };
        if alpha != 1.0 {
            for x in prod.data_mut() {
                *x *= alpha;
            }
        }
        match &self.bias {
            _ if beta == 0.0 => Ok(prod),
            Some(bias) => add_bias(prod, bias),
            None => add_bias(prod, &gemm_bias(args[2], beta)),
        }
    }

    /// Whether this step's output rows depend only on the same rows of
    /// its row-varying arguments, judged from the operator and which
    /// arguments are constants (shapes are checked per run).
    fn row_separable(&self) -> bool {
        let row = |i: usize| !matches!(self.args.get(i), Some(Slot::Const(_)) | None);
        if self.args.iter().all(|a| matches!(a, Slot::Const(_))) {
            return false;
        }
        match &self.op {
            Op::MatMul => row(0) && !row(1),
            Op::Gemm { .. } => row(0) && !row(1) && !row(2),
            Op::Concat { axis } => *axis == 1 && (0..self.args.len()).all(row),
            Op::ReduceSum { axis } | Op::ReduceMean { axis } => *axis == 1,
            Op::Reshape { .. } => false,
            // GatherCols, the unary and binary elementwise operators,
            // ArgMax and Softmax.
            _ => true,
        }
    }
}

/// The width of a row-varying value: `[m, cols]`, or `[m]` when it is a
/// vector (then `cols` is 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Width {
    cols: usize,
    matrix: bool,
}

impl Width {
    fn shape(self, m: usize) -> Vec<usize> {
        if self.matrix {
            vec![m, self.cols]
        } else {
            vec![m]
        }
    }
}

/// How a blocked step computes its block.
#[derive(Debug)]
enum Kernel<'a> {
    Gather(&'a [usize]),
    Concat,
    /// Elementwise binary; `constant` is the non-row operand, if any.
    Binary {
        pairing: Broadcast,
        constant: Option<&'a [f32]>,
    },
    Unary,
    /// `MatMul` / `Gemm`: `alpha·(A × B) + bias`.
    Product {
        packed: Option<&'a PackedWeights>,
        b: &'a [f32],
        k: usize,
        alpha: f32,
        bias: Option<(Broadcast, &'a [f32])>,
    },
    Reduce {
        mean: bool,
    },
    ArgMax,
    Softmax,
}

/// A step of a blocked run: its kernel, its row-varying arguments (value
/// ids: 0 is the graph input, `j + 1` step `j`) and its output width.
#[derive(Debug)]
struct BlockStep<'a> {
    op: &'a Op,
    kernel: Kernel<'a>,
    args: Vec<usize>,
    width: Width,
}

/// A row-separable graph lowered for one input shape.
struct Blocked<'a> {
    steps: Vec<BlockStep<'a>>,
    /// Value ids of the graph outputs.
    outputs: Vec<usize>,
    /// Width of every value id.
    widths: Vec<Width>,
    /// FLOPs of the whole-matrix run.
    flops: u64,
}

impl<'a> Blocked<'a> {
    /// Lower `compiled` for an `[m, cols]` input, or `None` if some step's
    /// shapes are not a row-wise case of what [`Op::eval`] does with the
    /// whole matrix.
    fn lower(
        compiled: &'a Compiled,
        consts: &[&'a Tensor],
        cols: usize,
        m: usize,
    ) -> Option<Blocked<'a>> {
        let mut widths = vec![Width { cols, matrix: true }];
        let mut steps = Vec::with_capacity(compiled.steps.len());
        let mut flops = 0u64;
        let id = |slot: Slot| match slot {
            Slot::Input(_) => Some(0),
            Slot::Node(j) => Some(j + 1),
            Slot::Const(_) => None,
        };
        for step in &compiled.steps {
            // Whole-matrix shapes, for the pairing and the FLOP count.
            let shapes: Vec<Vec<usize>> = step
                .args
                .iter()
                .map(|&slot| match (id(slot), slot) {
                    (Some(v), _) => widths[v].shape(m),
                    (None, Slot::Const(c)) => consts[c].shape().to_vec(),
                    (None, _) => unreachable!("only constants have no value id"),
                })
                .collect();
            let shape_refs: Vec<&[usize]> = shapes.iter().map(Vec::as_slice).collect();
            flops += step.op.flops_for_shapes(&shape_refs);
            let constant = |i: usize| match step.args[i] {
                Slot::Const(c) => Some(consts[c]),
                _ => None,
            };
            let args: Vec<usize> = step.args.iter().filter_map(|&s| id(s)).collect();
            let first = args.first().map(|&v| widths[v]);
            let matrix_in = first.filter(|w| w.matrix);
            let (kernel, width) = match &step.op {
                Op::GatherCols { indices } => {
                    let w = matrix_in?;
                    if indices.iter().any(|&j| j >= w.cols) {
                        return None;
                    }
                    let width = Width {
                        cols: indices.len(),
                        matrix: true,
                    };
                    (Kernel::Gather(indices), width)
                }
                Op::Concat { .. } => {
                    let mut total = 0;
                    for &v in &args {
                        if !widths[v].matrix {
                            return None;
                        }
                        total += widths[v].cols;
                    }
                    let width = Width {
                        cols: total,
                        matrix: true,
                    };
                    (Kernel::Concat, width)
                }
                Op::MatMul | Op::Gemm { .. } => {
                    let w = matrix_in?;
                    let b = constant(1)?;
                    let n = rhs_cols(b, w.cols).ok()?;
                    let width = Width {
                        cols: n,
                        matrix: b.rank() == 2,
                    };
                    let (alpha, bias) = match step.op {
                        Op::Gemm { alpha, beta } if beta != 0.0 => {
                            let c = step.bias.as_ref()?;
                            match Broadcast::of(&width.shape(m), c.shape())? {
                                pairing @ (Broadcast::ScalarRight | Broadcast::RowRight) => {
                                    (alpha, Some((pairing, c.data())))
                                }
                                _ => return None,
                            }
                        }
                        Op::Gemm { alpha, .. } => (alpha, None),
                        _ => (1.0, None),
                    };
                    let kernel = Kernel::Product {
                        packed: step.packed.as_ref(),
                        b: b.data(),
                        k: w.cols,
                        alpha,
                        bias,
                    };
                    (kernel, width)
                }
                Op::ReduceSum { .. } | Op::ReduceMean { .. } => {
                    matrix_in?;
                    let mean = matches!(step.op, Op::ReduceMean { .. });
                    let width = Width {
                        cols: 1,
                        matrix: false,
                    };
                    (Kernel::Reduce { mean }, width)
                }
                Op::ArgMax => {
                    matrix_in?;
                    let width = Width {
                        cols: 1,
                        matrix: false,
                    };
                    (Kernel::ArgMax, width)
                }
                Op::Softmax => (Kernel::Softmax, matrix_in?),
                op if op.arity() == Some(2) => {
                    // Both operands vary by row only when they pair
                    // elementwise; a constant must be a scalar or a row
                    // vector (one with `m` rows would tie it to `m`).
                    let pairing = Broadcast::of(&shapes[0], &shapes[1])?;
                    let (constant, width) = match (constant(0), constant(1), pairing) {
                        (None, None, Broadcast::Same) => (None, first?),
                        (None, Some(c), Broadcast::ScalarRight | Broadcast::RowRight) => {
                            (Some(c.data()), first?)
                        }
                        (Some(c), None, Broadcast::ScalarLeft | Broadcast::RowLeft) => {
                            (Some(c.data()), first?)
                        }
                        _ => return None,
                    };
                    (Kernel::Binary { pairing, constant }, width)
                }
                Op::Neg | Op::Relu | Op::Sigmoid | Op::Tanh | Op::Exp => (Kernel::Unary, first?),
                _ => return None,
            };
            widths.push(width);
            steps.push(BlockStep {
                op: &step.op,
                kernel,
                args,
                width,
            });
        }
        let outputs = compiled
            .outputs
            .iter()
            .map(|&slot| id(slot))
            .collect::<Option<Vec<_>>>()?;
        Some(Blocked {
            steps,
            outputs,
            widths,
            flops,
        })
    }

    /// Run over `x` block by block; each step keeps one buffer.
    fn run(&self, x: &Tensor) -> (Vec<Tensor>, u64) {
        let (m, cols) = (x.rows(), x.cols());
        let mut buffers: Vec<Vec<f32>> = self
            .steps
            .iter()
            .map(|s| Vec::with_capacity(BLOCK_ROWS * s.width.cols))
            .collect();
        let mut outputs: Vec<Vec<f32>> = self
            .outputs
            .iter()
            .map(|&v| Vec::with_capacity(m * self.widths[v].cols))
            .collect();
        for lo in (0..m).step_by(BLOCK_ROWS) {
            let rows = BLOCK_ROWS.min(m - lo);
            let block = &x.data()[lo * cols..(lo + rows) * cols];
            for (i, step) in self.steps.iter().enumerate() {
                let (done, rest) = buffers.split_at_mut(i);
                let value = |v: usize| if v == 0 { block } else { &done[v - 1][..] };
                let out = &mut rest[0];
                out.clear();
                step.run(rows, &value, &self.widths, out);
            }
            for (out, &v) in outputs.iter_mut().zip(&self.outputs) {
                out.extend_from_slice(if v == 0 { block } else { &buffers[v - 1] });
            }
        }
        let tensors = outputs
            .into_iter()
            .zip(&self.outputs)
            .map(|(data, &v)| {
                Tensor::new(self.widths[v].shape(m), data).expect("block outputs cover m rows")
            })
            .collect();
        (tensors, self.flops)
    }
}

impl BlockStep<'_> {
    /// Append this step's output for a block of `rows` rows to `out`.
    fn run<'v>(
        &self,
        rows: usize,
        value: &dyn Fn(usize) -> &'v [f32],
        widths: &[Width],
        out: &mut Vec<f32>,
    ) {
        let arg = |i: usize| value(self.args[i]);
        match &self.kernel {
            Kernel::Gather(indices) => {
                gather_rows(arg(0), rows, widths[self.args[0]].cols, indices, out)
            }
            Kernel::Concat => {
                let parts: Vec<(&[f32], usize)> = self
                    .args
                    .iter()
                    .map(|&v| (value(v), widths[v].cols))
                    .collect();
                concat_rows(&parts, rows, out);
            }
            Kernel::Binary { pairing, constant } => {
                let (a, b) = match (pairing, constant) {
                    (_, None) => (arg(0), arg(1)),
                    (Broadcast::ScalarLeft | Broadcast::RowLeft, Some(c)) => (*c, arg(0)),
                    (_, Some(c)) => (arg(0), *c),
                };
                binary_kernel!(self.op, f => pairing.apply(a, b, f, out));
            }
            Kernel::Unary => {
                unary_kernel!(self.op, f => out.extend(arg(0).iter().map(|&x| f(x))));
            }
            Kernel::Product {
                packed,
                b,
                k,
                alpha,
                bias,
            } => {
                let n = self.width.cols;
                out.resize(rows * n, 0.0);
                match packed {
                    Some(packed) => packed.matmul_rows(arg(0), rows, out),
                    None => matmul_rows_sparse(arg(0), rows, *k, b, n, out),
                }
                if *alpha != 1.0 {
                    for x in out.iter_mut() {
                        *x *= alpha;
                    }
                }
                match bias {
                    Some((Broadcast::ScalarRight, c)) => {
                        let s = c[0];
                        for x in out.iter_mut() {
                            *x += s;
                        }
                    }
                    Some((_, c)) if n > 0 => {
                        for row in out.chunks_exact_mut(n) {
                            for (x, &y) in row.iter_mut().zip(*c) {
                                *x += y;
                            }
                        }
                    }
                    _ => {}
                }
            }
            Kernel::Reduce { mean } => {
                reduce_rows(arg(0), rows, widths[self.args[0]].cols, *mean, out)
            }
            Kernel::ArgMax => argmax_rows(arg(0), rows, widths[self.args[0]].cols, out),
            Kernel::Softmax => softmax_rows(arg(0), rows, self.width.cols, out),
        }
    }
}
