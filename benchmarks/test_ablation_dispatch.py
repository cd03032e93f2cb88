"""Ablation: interpreter dispatch design (threaded vs classic).

DESIGN.md calls out the dispatch structure as the mechanism behind the
Wasm3-vs-WAMR gap; this bench isolates it by running the same module
through both interpreter profiles and through hybrids, holding everything
else fixed.
"""

from conftest import one_shot
from repro.compiler import compile_source
from repro.hw import CPUModel
from repro.runtimes.instance import instantiate
from repro.runtimes.interp.engine import (CLASSIC_PROFILE, THREADED_PROFILE,
                                          InterpProfile, Interpreter,
                                          prepare_function)
from repro.wasi import WasiAPI, VirtualFS
from repro.wasm import decode_module
from repro.wasm.module import KIND_FUNC

SOURCE = """
int main(void) {
    int i;
    unsigned int h = 1u;
    for (i = 0; i < 15000; i++) h = h * 31u + (unsigned int)(i ^ (i >> 3));
    print_x(h); print_nl();
    return 0;
}
"""


def run_profile(profile: InterpProfile):
    module = decode_module(compile_source(SOURCE).wasm_bytes)
    cpu = CPUModel()
    fs = VirtualFS()
    wasi = WasiAPI(fs=fs, cpu=cpu)
    env = instantiate(module, wasi, cpu)
    functions = [None] * module.num_funcs
    for idx, entry in env.host_funcs.items():
        functions[idx] = entry
    n_imported = module.num_imported_funcs
    for i, func in enumerate(module.functions):
        functions[n_imported + i] = ("wasm",
                                     prepare_function(module, func,
                                                      n_imported + i))
    interp = Interpreter(profile, cpu, env.memory, env.globals, env.table,
                         functions)
    interp.set_signatures(module)
    start = module.find_export("_start", KIND_FUNC)
    from repro.errors import ExitProc
    try:
        interp.call_index(start.index, ())
    except ExitProc:
        pass
    return cpu, fs


def test_ablation_dispatch_profiles(benchmark):
    def run_all():
        results = {}
        for label, profile in (("threaded", THREADED_PROFILE),
                               ("classic", CLASSIC_PROFILE)):
            cpu, fs = run_profile(profile)
            results[label] = (cpu.cycles, fs.stdout_text())
        return results

    results = one_shot(benchmark, run_all)
    assert results["threaded"][1] == results["classic"][1]
    # The threaded design's cheaper dispatch wins on the same module —
    # the Wasm3-vs-WAMR gap with every other variable held fixed.
    assert results["threaded"][0] < results["classic"][0]


def test_ablation_dispatch_cost_scaling(benchmark):
    """Per-op dispatch cost translates ~linearly into cycles."""
    def sweep():
        cycles = []
        for dispatch in (2, 6, 12):
            profile = InterpProfile(
                name=f"d{dispatch}", dispatch_cost=dispatch,
                handler_base=4, translate_cost_per_op=36,
                code_bytes_per_op=20)
            cpu, _fs = run_profile(profile)
            cycles.append(cpu.cycles)
        return cycles

    c2, c6, c12 = one_shot(benchmark, sweep)
    assert c2 < c6 < c12
    # Roughly linear: the 2->12 gap is much larger than the 2->6 gap.
    assert (c12 - c2) > 1.5 * (c6 - c2)
