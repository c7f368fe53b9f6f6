import tracemalloc

import pytest
import scipy.fft


@pytest.fixture
def fft_calls(monkeypatch):
    """Names of the scipy.fft transforms run during the test, in call order.

    ``grid._fftn``/``_ifftn`` look the transforms up at call time, so
    replacing the module attributes sees every transform the package runs.
    A transform over all axes is named ``"fftn"``; a pass over some axes
    carries them, as in ``"fftn(axes=(0,))"``.
    """
    calls: list[str] = []
    for name in ("fftn", "ifftn"):
        real = getattr(scipy.fft, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            axes = kwargs.get("axes")
            calls.append(_name if axes is None else f"{_name}(axes={tuple(axes)})")
            return _real(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    return calls


@pytest.fixture
def traced_peak():
    """Peak bytes that numpy and Python allocate during a call.

    The call runs once untraced first, so that the arrays a grid caches on
    first use (``radius``, ``freq_radius``) are not counted.
    """
    def peak(call) -> int:
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
