"""Cloud substrate: VM types, provisioner, monitoring agent, fleet members."""

from repro.cloud.fleet import (
    PAPER_PLAN_MIX,
    FleetMember,
    FleetSpec,
    build_member,
)
from repro.cloud.monitoring import MonitoringAgent
from repro.cloud.provisioner import Credentials, Provisioner, ServiceDeployment
from repro.cloud.vm import HDD, SSD, VM_TYPES, DiskKind, VMType, vm_type

__all__ = [
    "Credentials",
    "DiskKind",
    "FleetMember",
    "FleetSpec",
    "build_member",
    "HDD",
    "MonitoringAgent",
    "PAPER_PLAN_MIX",
    "Provisioner",
    "SSD",
    "ServiceDeployment",
    "VMType",
    "VM_TYPES",
    "vm_type",
]
