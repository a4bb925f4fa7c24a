"""Simulated multi-GPU cluster: network, devices, compute and execution.

The paper measured wall-clock times on real DGX-1 servers.  Here the
hardware is simulated (see DESIGN.md §2): data movement is real numpy
buffer shuffling, but *time* comes from

* :mod:`repro.simulator.network` — a flow-level network simulator with
  max-min fair bandwidth sharing on contended physical connections and
  an α–β (latency + size/bandwidth) transfer model, run on the fluid
  engine of :mod:`repro.runtime.network`;
* :mod:`repro.simulator.compute` — a calibrated FLOP/byte model for GNN
  layer computation;
* :mod:`repro.simulator.devices` — per-GPU memory accounting with
  simulated out-of-memory errors;
* :mod:`repro.simulator.executor` — stage-by-stage execution of
  communication plans under the decentralized ready/done protocol of
  §6.1, plus the Swap baseline's host-staging execution.
"""

from repro.simulator.devices import DeviceMemory, SimulatedOOMError
from repro.simulator.network import Flow, FlowResult, NetworkSimulator
from repro.simulator.compute import ComputeModel, LayerComputeCost
from repro.simulator.executor import ExecutionReport, PlanExecutor, SwapExecutor

__all__ = [
    "SimulatedOOMError",
    "DeviceMemory",
    "Flow",
    "FlowResult",
    "NetworkSimulator",
    "ComputeModel",
    "LayerComputeCost",
    "PlanExecutor",
    "SwapExecutor",
    "ExecutionReport",
]
