"""Time per call of the network evaluation kernels, at three network sizes,
and the one-off cost of building a network's operators, at five.

Usage (from anywhere)::

    python3 tools/kernels.py [--calls 4000] [--repeats 7]

For each of ``synthetic_m20_n30_s101``, ``synthetic_m40_n60_s103`` and
``synthetic_m80_n120_s105`` (the benchmark's networks) at rho = 100, it
prints the best, over ``--repeats`` loops of ``--calls`` calls, of the
microseconds per call of:

* ``g_value_grad``, ``g_value`` and ``phi_value`` at a new point: the
  loop cycles through 16 points drawn from [-2, 2], so no call finds the
  point it asks for in the objective's memo;
* ``grad_h`` at the memo's point, as the outer loop asks for it right
  after the subproblem solve has evaluated that point;
* ``g_hessian`` at the memo's point, once f1's record is stored there;
* ``spd_solve`` on that Hessian with g's gradient as the right-hand
  side, a solve that needs no damping.

Then, for each of those networks and ``synthetic_m200_n300_s107`` and
``synthetic_m400_n600_s109``, it prints the best, over ``--repeats``
builds, of the milliseconds that ``NetworkObjective(net)`` takes
(``objective``, the set-up every solve pays) and that the first Hessian
request takes to build f1's Hessian operator (``hessian_op``).

BLAS is pinned to one thread before NumPy is imported, so the figures
are one core's.  Only the library is imported; the benchmark is not.
"""

import os

# BLAS threads must be pinned before NumPy is imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from dcboost import NetworkObjective, generate_network  # noqa: E402
from dcboost.inner import spd_solve  # noqa: E402

NETWORKS = ((20, 30, 101), (40, 60, 103), (80, 120, 105))
BUILD_NETWORKS = NETWORKS + ((200, 300, 107), (400, 600, 109))
RHO = 100.0
POINTS = 16


def best_us(call, args, calls, repeats):
    """The fastest of ``repeats`` loops of ``calls`` calls of ``call``,
    cycling through ``args``, in microseconds per call."""
    cycle = [args[i % len(args)] for i in range(calls)]
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for arg in cycle:
            call(arg)
        best = min(best, time.perf_counter() - started)
    return best / calls * 1e6


def kernel_times(shape, calls, repeats):
    """(kernel name, µs per call) at one network size."""
    net = generate_network(*shape)
    problem = NetworkObjective(net).as_dc_problem(rho=RHO)
    points = list(np.random.default_rng(list(shape)).uniform(-2.0, 2.0, size=(POINTS, net.m)))
    x = points[0]
    times = [(name, best_us(getattr(problem, name), points, calls, repeats))
             for name in ("g_value_grad", "g_value", "phi_value")]
    _, grad = problem.g_value_grad(x)  # x is now the memo's point, with f1's record
    times.append(("grad_h", best_us(problem.grad_h, [x], calls, repeats)))
    hess = problem.g_hessian(x)  # builds f1's Hessian operator, a one-off cost
    times.append(("g_hessian", best_us(problem.g_hessian, [x], calls, repeats)))
    if spd_solve(hess, grad)[1] != 0.0:
        raise RuntimeError(f"{net.name}: the Hessian needs damping")
    times.append(("spd_solve", best_us(lambda h: spd_solve(h, grad), [hess], calls, repeats)))
    return net.name, times


def build_times(shape, repeats):
    """(network name, best ms of NetworkObjective(net), best ms of the
    first Hessian request's operator build) over ``repeats`` builds."""
    net = generate_network(*shape)
    objective = hessian_op = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        obj = NetworkObjective(net)
        built = time.perf_counter()
        obj._hessian_op  # built on first access, as by the first Hessian request
        done = time.perf_counter()
        objective, hessian_op = min(objective, built - started), min(hessian_op, done - built)
    return net.name, objective * 1e3, hessian_op * 1e3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--calls", type=int, default=4000, help="calls per timing loop")
    parser.add_argument("--repeats", type=int, default=7, help="loops and builds; the fastest counts")
    args = parser.parse_args(argv)
    if args.calls < 1 or args.repeats < 1:
        parser.error("--calls and --repeats must be positive")
    print(f"best of {args.repeats} loops of {args.calls} calls, µs per call, one BLAS thread")
    for shape in NETWORKS:
        name, times = kernel_times(shape, args.calls, args.repeats)
        print(f"{name}: " + "  ".join(f"{kernel} {us:.2f}" for kernel, us in times))
    print(f"best of {args.repeats} builds, ms per build, one BLAS thread")
    for shape in BUILD_NETWORKS:
        name, objective, hessian_op = build_times(shape, args.repeats)
        print(f"{name}: objective {objective:.3f}  hessian_op {hessian_op:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
