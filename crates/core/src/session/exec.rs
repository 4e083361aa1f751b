//! Session execution: named and positional run paths over the pre-inference plan.

use super::Session;
use crate::CoreError;
use mnn_graph::TensorId;
use mnn_tensor::Tensor;
use std::collections::HashMap;
use std::time::Instant;

/// Timing of one inference.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Wall-clock milliseconds spent in `run` (CPU work measured for real).
    pub wall_ms: f64,
    /// Virtual milliseconds accumulated by simulated GPU backends during the run.
    pub gpu_virtual_ms: f64,
}

impl Session {
    /// Mutable access to the staged input tensor named `name`.
    ///
    /// Fill it with data, then call [`Session::run_session`]. After a
    /// [`Session::resize_input`] + [`Session::resize_session`], the staged tensor
    /// has the new shape (zero-filled).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] for an unknown input name.
    pub fn input_mut(&mut self, name: &str) -> Result<&mut Tensor, CoreError> {
        let id = self.resolve_input(name)?;
        self.inputs
            .get_mut(&id)
            .ok_or_else(|| CoreError::InvalidInput(format!("input '{name}' has no staged tensor")))
    }

    /// The output tensor named `name`, produced by the most recent run.
    ///
    /// Output names are the producing node's name (e.g. `"prob"`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] for an unknown output name or when no
    /// run has produced outputs yet.
    pub fn output(&self, name: &str) -> Result<&Tensor, CoreError> {
        let id = self
            .graph
            .output_named(name)
            .ok_or_else(|| self.unknown_output(name))?;
        self.outputs.get(&id).ok_or_else(|| {
            CoreError::InvalidInput(format!(
                "output '{name}' is not available: run the session first"
            ))
        })
    }

    /// Run one inference with named inputs, e.g.
    /// `session.run_with(&[("data", &tensor)])`.
    ///
    /// Returns the outputs in graph-output order; they also stay readable through
    /// [`Session::output`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on unknown or duplicated names,
    /// missing inputs or shape mismatches, and propagates backend errors.
    pub fn run_with(&mut self, inputs: &[(&str, &Tensor)]) -> Result<Vec<Tensor>, CoreError> {
        if inputs.len() != self.graph.inputs().len() {
            return Err(CoreError::InvalidInput(format!(
                "expected {} inputs, got {}",
                self.graph.inputs().len(),
                inputs.len()
            )));
        }
        // Resolve and validate the complete input list before staging anything:
        // a rejected call must not leave a half-updated staging area behind.
        let mut provided: Vec<TensorId> = Vec::with_capacity(inputs.len());
        for (name, tensor) in inputs {
            let id = self.resolve_input(name)?;
            if provided.contains(&id) {
                return Err(CoreError::InvalidInput(format!(
                    "input '{name}' was provided more than once"
                )));
            }
            self.check_input_shape(id, tensor)?;
            provided.push(id);
        }
        for (id, (_, tensor)) in provided.iter().zip(inputs) {
            self.inputs.insert(*id, (*tensor).clone());
        }
        self.run_session()?;
        self.collect_outputs()
    }

    /// Run one inference from the staged input tensors (the
    /// [`Session::input_mut`] flow, mirroring MNN's `runSession`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when a staged input's shape disagrees
    /// with the current geometry (e.g. after writing a differently-shaped tensor
    /// into [`Session::input_mut`] without resizing), and propagates backend
    /// errors.
    pub fn run_session(&mut self) -> Result<(), CoreError> {
        for id in self.graph.inputs() {
            let staged = self.inputs.get(id).ok_or_else(|| {
                CoreError::InvalidInput(format!("input {id} has no staged tensor"))
            })?;
            self.check_input_shape(*id, staged)?;
        }
        self.execute()
    }

    /// Run one inference with positional inputs (compatibility wrapper).
    ///
    /// `inputs` must match the graph's declared inputs in order and shape. New
    /// code should prefer the named paths — [`Session::run_with`] or
    /// [`Session::input_mut`] + [`Session::run_session`] — which stay stable under
    /// model refactors that reorder inputs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on input-count/shape mismatch and
    /// propagates backend errors.
    pub fn run(&mut self, inputs: &[Tensor]) -> Result<Vec<Tensor>, CoreError> {
        let graph_inputs = self.graph.inputs();
        if inputs.len() != graph_inputs.len() {
            return Err(CoreError::InvalidInput(format!(
                "expected {} inputs, got {}",
                graph_inputs.len(),
                inputs.len()
            )));
        }
        // Validate every input before staging any (see `run_with`).
        let ids: Vec<TensorId> = graph_inputs.to_vec();
        for (tensor, id) in inputs.iter().zip(&ids) {
            self.check_input_shape(*id, tensor)?;
        }
        for (tensor, id) in inputs.iter().zip(&ids) {
            self.inputs.insert(*id, tensor.clone());
        }
        self.execute()?;
        self.collect_outputs()
    }

    /// Run `runs` timed inferences after `warmup` untimed ones and return the mean
    /// wall-clock and virtual-GPU milliseconds per inference.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Session::run`].
    pub fn benchmark(
        &mut self,
        inputs: &[Tensor],
        warmup: usize,
        runs: usize,
    ) -> Result<RunStats, CoreError> {
        for _ in 0..warmup {
            self.run(inputs)?;
        }
        let mut total = RunStats::default();
        for _ in 0..runs.max(1) {
            self.run(inputs)?;
            let stats = self.last_stats();
            total.wall_ms += stats.wall_ms;
            total.gpu_virtual_ms += stats.gpu_virtual_ms;
        }
        let n = runs.max(1) as f64;
        Ok(RunStats {
            wall_ms: total.wall_ms / n,
            gpu_virtual_ms: total.gpu_virtual_ms / n,
        })
    }

    pub(super) fn resolve_input(&self, name: &str) -> Result<TensorId, CoreError> {
        self.graph.input_named(name).ok_or_else(|| {
            CoreError::InvalidInput(format!(
                "unknown input '{name}'; graph inputs are {:?}",
                self.graph.input_names()
            ))
        })
    }

    fn unknown_output(&self, name: &str) -> CoreError {
        CoreError::InvalidInput(format!(
            "unknown output '{name}'; graph outputs are {:?}",
            self.graph.output_names()
        ))
    }

    fn check_input_shape(&self, id: TensorId, tensor: &Tensor) -> Result<(), CoreError> {
        let expected = self.graph.tensor_info(id)?.shape.clone();
        if let Some(expected) = expected {
            if &expected != tensor.shape() {
                return Err(CoreError::InvalidInput(format!(
                    "input {id} expects shape {expected}, got {} (use resize_input + \
                     resize_session to change the geometry)",
                    tensor.shape()
                )));
            }
        }
        Ok(())
    }

    // The returned `Vec` requires one copy per output tensor: outputs stay
    // retained for `Session::output` while the run()/run_with() contract hands
    // back owned tensors. The `input_mut` + `run_session` + `output` flow pays
    // no such copy — outputs are usually small (logits), inputs/activations are
    // the hot buffers and those are not copied.
    fn collect_outputs(&mut self) -> Result<Vec<Tensor>, CoreError> {
        let mut outputs = Vec::with_capacity(self.graph.outputs().len());
        for id in self.graph.outputs() {
            let tensor = self.outputs.get(id).ok_or_else(|| {
                CoreError::InvalidInput(format!("graph output {id} was never produced"))
            })?;
            outputs.push(tensor.clone());
        }
        Ok(outputs)
    }

    /// The inference loop: pure computation against the pre-selected schemes,
    /// placements and memory (paper Fig. 2's "execute" stage).
    fn execute(&mut self) -> Result<(), CoreError> {
        // reset GPU virtual clocks so per-run stats are meaningful
        for backend in &mut self.backends {
            backend.reset_virtual_clock();
        }
        for backend in &mut self.backends {
            backend.on_execute_begin();
        }
        let start = Instant::now();

        // Opt-in per-op spans. One buffer feeds both the session's profiler
        // and the request trace active on this thread, if any (see
        // `mnn_obs::RunSpans`). With neither on, `spans` is `None` and the
        // loop below takes no timestamps.
        let mut spans = mnn_obs::RunSpans::begin(self.config.profiler.as_ref());

        // Remaining-use counts drive early release of intermediate tensors, the
        // runtime counterpart of the static plan.
        let mut remaining_uses: HashMap<TensorId, usize> = HashMap::new();
        for node in self.graph.nodes() {
            for input in &node.inputs {
                *remaining_uses.entry(*input).or_insert(0) += 1;
            }
        }
        for output in self.graph.outputs() {
            *remaining_uses.entry(*output).or_insert(0) += 1;
        }

        // Intermediate tensors produced during this run. Graph inputs are read
        // by reference from the staged `self.inputs` map — no copy on the hot
        // path.
        let mut storage: HashMap<TensorId, Tensor> = HashMap::new();
        let staged_inputs = &self.inputs;

        for entry in &mut self.plan.scheduled {
            let node = self.graph.node(entry.node)?;
            // Gather activation inputs (constants were captured at creation time).
            let mut activation_inputs: Vec<&Tensor> = Vec::new();
            for input in &node.inputs {
                let info = self.graph.tensor_info(*input)?;
                if info.is_constant {
                    continue;
                }
                let tensor = storage
                    .get(input)
                    .or_else(|| staged_inputs.get(input))
                    .ok_or_else(|| {
                        CoreError::InvalidInput(format!(
                            "tensor {input} required by node '{}' is not available",
                            node.name
                        ))
                    })?;
                activation_inputs.push(tensor);
            }
            let mut output = Tensor::zeros(mnn_tensor::Shape::vector(1));
            // Bytes are summed *before* the timestamp so accounting never
            // inflates the measured kernel time.
            let profiled = spans.is_some().then(|| {
                let input_bytes: u64 = activation_inputs.iter().map(|t| t.byte_size() as u64).sum();
                (input_bytes, Instant::now())
            });
            if self.config.decouple_preparation {
                let execution = entry
                    .execution
                    .as_mut()
                    .expect("executions are pre-created when decoupled");
                execution.run(&activation_inputs, &mut output)?;
            } else {
                // Pay the preparation cost inside the inference loop (Table 2 "w/o").
                let mut execution =
                    self.backends[entry.backend_index].on_create(node, &self.graph, &entry.hint)?;
                execution.run(&activation_inputs, &mut output)?;
            }
            drop(activation_inputs);
            if let (Some(spans), Some((input_bytes, kernel_start))) = (spans.as_mut(), profiled) {
                spans.record_node(
                    &node.name,
                    node.op.name(),
                    &entry.scheme_label,
                    &entry.placement_label,
                    &output.shape().to_string(),
                    kernel_start,
                    input_bytes + output.byte_size() as u64,
                );
            }
            storage.insert(node.outputs[0], output);

            // Release inputs whose last consumer has run (memory reuse at runtime).
            for input in &node.inputs {
                let info = self.graph.tensor_info(*input)?;
                if info.is_constant || self.graph.inputs().contains(input) {
                    continue;
                }
                if let Some(uses) = remaining_uses.get_mut(input) {
                    *uses = uses.saturating_sub(1);
                    if *uses == 0 && !self.graph.outputs().contains(input) {
                        storage.remove(input);
                    }
                }
            }
        }

        for backend in &mut self.backends {
            backend.on_execute_end();
        }
        if let Some(spans) = spans {
            spans.finish();
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
        let gpu_virtual_ms: f64 = self.backends.iter().map(|b| b.virtual_elapsed_ms()).sum();
        self.last_stats = RunStats {
            wall_ms,
            gpu_virtual_ms,
        };

        self.outputs.clear();
        for id in self.graph.outputs() {
            // A graph output is normally produced by a node; a degenerate graph
            // may also mark an input as an output (passthrough).
            let tensor = match storage.remove(id) {
                Some(tensor) => tensor,
                None => self.inputs.get(id).cloned().ok_or_else(|| {
                    CoreError::InvalidInput(format!("graph output {id} was never produced"))
                })?,
            };
            self.outputs.insert(*id, tensor);
        }
        Ok(())
    }
}
