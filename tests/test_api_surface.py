"""API-surface guard: stage functions take what to compute, never how to
run it. Execution choices (batch sizes, widths of the input, path
selectors, gate thresholds, actor pools) are made by the code from module
constants, so no public callable of the package may accept one of these
parameters."""

import importlib
import inspect
import pkgutil

import capelinker_ray

EXECUTION_KNOBS = {
    "batch_size", "input_partitions", "strategy", "payload_mode",
    "rejoin_threshold", "broadcast_threshold", "broadcast_nodes",
    "concurrency", "num_cpus", "max_iterations", "num_partitions",
    "shuffle", "batch_format", "max_broadcast_bytes", "broadcast_from_ids",
}

# the one allowed knob: grouped_map is the shuffle primitive itself, and
# the one caller with a width rule of its own (blocking's quadratic pair
# exchange, via heavy_width) passes it; every other caller takes the
# shuffle_width default
EXEMPT = {"capelinker_ray.stages.grouped.grouped_map(num_partitions)"}


def _public_callables():
    """(qualified name, callable) for every public function, class and
    public class method defined in a module of the package."""
    mods = [capelinker_ray] + [
        importlib.import_module(m.name)
        for m in pkgutil.walk_packages(capelinker_ray.__path__,
                                       capelinker_ray.__name__ + ".")]
    seen = set()
    for mod in mods:
        for name, obj in vars(mod).items():
            if name.startswith("_") or id(obj) in seen:
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue        # re-exports are checked where defined
            if inspect.isfunction(obj):
                seen.add(id(obj))
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                seen.add(id(obj))
                for mname, meth in vars(obj).items():
                    if inspect.isfunction(meth) and (
                            mname == "__init__" or not mname.startswith("_")):
                        yield f"{mod.__name__}.{name}.{mname}", meth


def test_public_callables_take_no_execution_knobs():
    found = list(_public_callables())
    assert len(found) > 100           # the walk reached the stage modules
    offenders = sorted(
        f"{qual}({p})" for qual, fn in found
        for p in inspect.signature(fn).parameters if p in EXECUTION_KNOBS)
    assert offenders == sorted(EXEMPT), offenders
