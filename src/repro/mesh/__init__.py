"""Processor-level mesh substrate: topology, wires, comparator machine."""

from repro.mesh.machine import LinkStats, MeshMachine
from repro.mesh.topology import Cell, MeshTopology

__all__ = ["LinkStats", "MeshMachine", "Cell", "MeshTopology"]
