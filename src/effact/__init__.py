"""Software model of a full-stack RNS-CKKS acceleration platform.

Layers, bottom to top:

- rns: NTT-friendly moduli and Montgomery representation tags
- poly: vector kernels (NTT, base conversion, automorphism)
- ckks: a reference leveled CKKS scheme built on the kernels
- ir: the accelerator instruction set, its text/binary formats, and a
  golden executor
- compiler: optimization passes from IR to scheduled, allocated machine code
- sim: a cycle-approximate performance model
- workloads: FHE workload generators and instruction-mix analysis
- cli: the `effact` command line front end
"""

__version__ = "0.1.0"
