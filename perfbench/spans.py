"""Call tracing of the rebit modules, installed from outside the program.

The tracer replaces each traced function with a timing wrapper in every
``rebit`` module namespace that binds it: ``from .cp import is_cp`` copies the
function into the importing module, so patching ``rebit.cp`` alone would miss
the calls made through that copy.  Modules are reached through
``sys.modules`` because the package namespace shadows ``rebit.classify`` with
the function of the same name.

A span stack gives each call its self time (duration minus the time of the
traced calls it made).  Calls, total and self time are summed per function
in memory, since one ``run_verify`` alone makes about 570,000 traced
calls, and read out once when the traced run ends.
"""

import functools
import sys
import time

# (module, attribute) of every traced function; "Class.method" names a
# method, which is patched on the class itself.
TRACED = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("channel", "AffineChannel.__init__"),
    ("channel", "AffineChannel.from_json_dict"),
    ("canonical", "decompose_channel"),
    ("canonical", "canonical_decompose"),
    ("canonical", "reconstruct"),
    ("canonical", "reconstruction_residual"),
    ("cp", "is_cp"),
    ("cp", "diagonal_frame"),
    ("cp", "shift_region_contains"),
    ("cp", "q_values"),
    ("cp", "charpoly_coeffs"),
    ("cp", "chi_matrix"),
    ("linalg", "eig_sym3"),
    ("linalg", "svd2"),
    ("linalg", "rotation_matrix"),
    ("classify", "sample_cp_channels"),
    ("classify", "sample_cp_channel"),
    ("classify", "ellipse_peak_norm"),
    ("classify", "classify"),
    ("classify", "image_ellipse"),
    ("render", "disk_figure_svg"),
    ("verify", "unital_grid_sweep"),
    ("verify", "random_sweep"),
    ("verify", "roundtrip_sweep"),
    ("verify", "double_angle_sweep"),
    ("bloch", "density_from_bloch"),
    ("bloch", "bloch_from_density"),
    ("bloch", "state_polar"),
    ("bloch", "is_valid_state"),
)


def _rebit_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "rebit" or name.startswith("rebit.")]


class Tracer:
    """Per-function call count, total and self time of the traced rebit functions."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self._stack: list[float] = []  # time spent in traced children, per open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self) -> None:
        modules = _rebit_modules()
        for module_name, attr in TRACED:
            module = sys.modules[f"rebit.{module_name}"]
            key = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = vars(cls)[method]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(key, raw.__func__))
                else:
                    patched = self._wrap(key, raw)
                setattr(cls, method, patched)
                self._undo.append((cls, method, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(key, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._undo.append((mod, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def table(self) -> dict[str, dict]:
        return {
            key: {"calls": calls, "total_s": total, "self_s": own}
            for key, (calls, total, own) in sorted(self.stats.items())
        }
