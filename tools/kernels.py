"""Time per call of the network evaluation kernels, at four network sizes,
and the one-off cost of building a network's operators, at five.

Usage (from anywhere)::

    python3 tools/kernels.py [--calls 4000] [--repeats 7]

For each of ``synthetic_m20_n30_s101``, ``synthetic_m40_n60_s103`` and
``synthetic_m80_n120_s105`` (the benchmark's networks) and
``synthetic_m200_n300_s107`` (the paper's scale) at rho = 100, it prints
the median, over ``--repeats`` loops of ``--calls`` calls, of the
microseconds per call of:

* ``g_value_grad``, ``g_value`` and ``phi_value`` at a new point: the
  loop cycles through 16 points drawn from [-2, 2], so no call finds the
  point it asks for in the objective's memo;
* ``grad_h`` at the memo's point, as the outer loop asks for it right
  after the subproblem solve has evaluated that point;
* ``g_hessian`` at the memo's point, once f1's record is stored there;
* ``spd_solve`` on that Hessian with g's gradient as the right-hand
  side, a solve that needs no damping.

The loops run round robin: each round runs one loop of every kernel at
every size, so a slow spell of the machine spreads over every row instead
of lifting one size's whole row.

Then, for each of those networks and ``synthetic_m400_n600_s109``, it
prints the median, over ``--repeats`` builds, of the milliseconds that
``generate_network`` takes to draw the network (``generate``), that
``NetworkObjective(net)`` takes (``objective``; the two are the set-up
every benchmark solve pays) and that the first Hessian request takes to
build f1's Hessian operator (``hessian_op``).  The builds run round robin
over the five networks too, and the median, unlike the best, is not one
lucky build.

BLAS is pinned to one thread before NumPy is imported, so the figures
are one core's.  On a 2-core x86 box the default run takes about 21 s.
Only the library is imported; the benchmark is not.
"""

import os

# BLAS threads must be pinned before NumPy is imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from dcboost import NetworkObjective, generate_network  # noqa: E402
from dcboost.inner import spd_solve  # noqa: E402

NETWORKS = ((20, 30, 101), (40, 60, 103), (80, 120, 105), (200, 300, 107))
BUILD_NETWORKS = NETWORKS + ((400, 600, 109),)
RHO = 100.0
POINTS = 16


def kernel_loops(shape, calls):
    """(network name, [(kernel name, call, arguments of one loop, at_x)])
    at one network size; a loop with ``at_x`` runs once g_value_grad has
    made x the memo's point again, with f1's record."""
    net = generate_network(*shape)
    problem = NetworkObjective(net).as_dc_problem(rho=RHO)
    points = list(np.random.default_rng(list(shape)).uniform(-2.0, 2.0, size=(POINTS, net.m)))
    x = points[0]
    _, grad = problem.g_value_grad(x)
    hess = problem.g_hessian(x)  # builds f1's Hessian operator, a one-off cost
    if spd_solve(hess, grad)[1] != 0.0:
        raise RuntimeError(f"{net.name}: the Hessian needs damping")
    cycle = [points[i % POINTS] for i in range(calls)]
    loops = [(name, getattr(problem, name), cycle, False)
             for name in ("g_value_grad", "g_value", "phi_value")]
    loops += [("grad_h", problem.grad_h, [x] * calls, True),
              ("g_hessian", problem.g_hessian, [x] * calls, True),
              ("spd_solve", lambda h: spd_solve(h, grad), [hess] * calls, False)]
    return net.name, lambda: problem.g_value_grad(x), loops


def kernel_times(calls, repeats):
    """Per network of NETWORKS, (network name, [(kernel name, median µs
    per call)]) over ``repeats`` rounds, each of which runs one loop of
    ``calls`` calls of every kernel at every size."""
    sizes = [kernel_loops(shape, calls) for shape in NETWORKS]
    times = [[[] for _ in loops] for _, _, loops in sizes]
    for _ in range(repeats):
        for (_, to_x, loops), kept in zip(sizes, times):
            for (_, call, cycle, at_x), loop_times in zip(loops, kept):
                if at_x:
                    to_x()
                started = time.perf_counter()
                for arg in cycle:
                    call(arg)
                loop_times.append((time.perf_counter() - started) / calls * 1e6)
    return [(name, [(kernel, statistics.median(loop_times))
                    for (kernel, *_), loop_times in zip(loops, kept)])
            for (name, _, loops), kept in zip(sizes, times)]


def build_times(repeats):
    """Per network of BUILD_NETWORKS, (network name, median ms of
    generate_network(*shape), of NetworkObjective(net) and of the first
    Hessian request's operator build) over ``repeats`` rounds, each of
    which builds every network once."""
    names, times = {}, {shape: [] for shape in BUILD_NETWORKS}
    for _ in range(repeats):
        for shape in BUILD_NETWORKS:
            started = time.perf_counter()
            net = generate_network(*shape)
            drawn = time.perf_counter()
            obj = NetworkObjective(net)
            built = time.perf_counter()
            obj._hessian_op  # built on first access, as by the first Hessian request
            done = time.perf_counter()
            names[shape] = net.name
            times[shape].append((drawn - started, built - drawn, done - built))
    return [(names[shape], *(statistics.median(stage) * 1e3 for stage in zip(*times[shape])))
            for shape in BUILD_NETWORKS]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--calls", type=int, default=4000, help="calls per timing loop")
    parser.add_argument("--repeats", type=int, default=7,
                        help="rounds of kernel loops and of builds, of which the "
                        "median counts")
    args = parser.parse_args(argv)
    if args.calls < 1 or args.repeats < 1:
        parser.error("--calls and --repeats must be positive")
    print(f"median of {args.repeats} round-robin loops of {args.calls} calls, µs per call, "
          f"one BLAS thread")
    for name, times in kernel_times(args.calls, args.repeats):
        print(f"{name}: " + "  ".join(f"{kernel} {us:.2f}" for kernel, us in times))
    print(f"median of {args.repeats} round-robin builds, ms per build, one BLAS thread")
    for name, generate, objective, hessian_op in build_times(args.repeats):
        print(f"{name}: generate {generate:.3f}  objective {objective:.3f}  "
              f"hessian_op {hessian_op:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
