"""Independent reference implementations used to verify the fast paths.

Everything here deliberately avoids the package's own algorithms:
DTW is checked by exhaustive path enumeration and, float for float,
against the plain recurrence that builds one new list per row,
Savitzky-Golay weights by per-impulse polynomial fits, quantiles against
numpy's reference implementation, the linear fit against the closed-form
OLS solution, and the ICC decomposition against a direct sums-of-squares
calculation with scipy distributions. The F0 CSV writer, the per-word
features and the pitch tracker are checked bit for bit against their
plain forms: a writer that formats one row at a time, features that sort
every sample set they take a quantile of, and a tracker that analyses one
frame at a time. The
entrainment measures are checked against their per-speaker rescans of
every sample and a surrogate search over the whole contour store.
"""

from __future__ import annotations

import math

import numpy as np


def dtw_bruteforce(a, b) -> float:
    """Minimum cost over every monotone boundary-complete alignment path.

    Recursively enumerates all paths from (0, 0) to (n-1, m-1) built from
    diagonal/horizontal/vertical steps, summing |a_i - b_j| over visited
    cells. Exponential; only usable for short sequences.
    """
    n, m = len(a), len(b)
    assert n >= 1 and m >= 1
    best = [float("inf")]

    def walk(i, j, acc):
        acc += abs(a[i] - b[j])
        if acc >= best[0]:
            return  # cannot improve: all step costs are nonnegative
        if i == n - 1 and j == m - 1:
            best[0] = acc
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def dtw_bruteforce_full(a, b) -> float:
    """Same enumeration without the pruning shortcut (slower, even plainer)."""
    n, m = len(a), len(b)
    results = []

    def walk(i, j, acc):
        acc += abs(a[i] - b[j])
        if i == n - 1 and j == m - 1:
            results.append(acc)
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return min(results)


def dtw_by_rows(a, b) -> float:
    """The DTW recurrence one row at a time, each row a new list.

    Same cell arithmetic as ``entrain.dtw_distance``: start from the
    diagonal, take the up and then the left neighbour on a strict ``<``,
    add the local cost written as a subtraction. The result must equal the
    kernel's bit for bit, the sign of a zero included.
    """
    n = len(a)
    m = len(b)
    b0 = b[0]
    a0 = a[0]
    prev = [0.0] * m
    prev[0] = a0 - b0 if a0 >= b0 else b0 - a0
    for j in range(1, m):
        bj = b[j]
        prev[j] = prev[j - 1] + (a0 - bj if a0 >= bj else bj - a0)
    for i in range(1, n):
        ai = a[i]
        cur = [0.0] * m
        cur[0] = prev[0] + (ai - b0 if ai >= b0 else b0 - ai)
        for j in range(1, m):
            best = prev[j - 1]
            pj = prev[j]
            if pj < best:
                best = pj
            cj = cur[j - 1]
            if cj < best:
                best = cj
            bj = b[j]
            cur[j] = best + (ai - bj if ai >= bj else bj - ai)
        prev = cur
    return prev[m - 1]


def sg_weights_by_polyfit(window: int, order: int) -> np.ndarray:
    """Savitzky-Golay 0th-derivative weights from first principles.

    Weight j is the center value of the degree-``order`` least-squares
    polynomial fitted to the unit impulse at position j.
    """
    half = window // 2
    x = np.arange(-half, half + 1, dtype=float)
    weights = np.empty(window)
    for j in range(window):
        impulse = np.zeros(window)
        impulse[j] = 1.0
        coeffs = np.polyfit(x, impulse, deg=order)
        weights[j] = np.polyval(coeffs, 0.0)
    return weights


def ols_line(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Closed-form simple OLS: slope = S_ty / S_tt, intercept from means."""
    t = np.asarray(t, float)
    y = np.asarray(y, float)
    slope = float(((t - t.mean()) * (y - y.mean())).sum() / ((t - t.mean()) ** 2).sum())
    return float(y.mean() - slope * t.mean()), slope


def anova_two_way(x: np.ndarray) -> dict[str, float]:
    """Direct two-way ANOVA mean squares for a subjects x raters matrix."""
    x = np.asarray(x, float)
    n, k = x.shape
    grand = x.mean()
    ss_rows = k * ((x.mean(axis=1) - grand) ** 2).sum()
    ss_cols = n * ((x.mean(axis=0) - grand) ** 2).sum()
    ss_err = ((x - grand) ** 2).sum() - ss_rows - ss_cols
    return {
        "ms_rows": ss_rows / (n - 1),
        "ms_cols": ss_cols / (k - 1),
        "ms_err": ss_err / ((n - 1) * (k - 1)),
        "df_rows": n - 1,
        "df_err": (n - 1) * (k - 1),
    }


# ---------------------------------------------------------------------------
# reference implementation of the fast path in features: the sort-based
# per-word features


def _type7(values, p):
    x = np.sort(np.asarray(values, dtype=np.float64))
    h = (x.size - 1) * p
    lo = int(np.floor(h))
    hi = min(lo + 1, x.size - 1)
    return float(x[lo] + (h - lo) * (x[hi] - x[lo]))


def word_features_by_sorting(y, step):
    """(mean, median, slope, range, drop) of one word's samples ``y``.

    Every quantile sorts its input, the fitted line included, and the
    line is fitted with the centered dot products written out.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    t = np.arange(n, dtype=np.float64) / (n - 1)
    t_centered = t - 0.5
    slope = float(np.dot(t_centered, y - y.mean()) / np.dot(t_centered, t_centered))
    intercept = float(y.mean() - slope * 0.5)
    fitted = intercept + slope * (np.arange(n, dtype=np.float64) / (n - 1))
    return (
        float(y.mean()),
        _type7(y, 0.5),
        slope,
        _type7(fitted, 0.95) - _type7(fitted, 0.05),
        (float(fitted[-1]) - float(fitted[0])) / ((n - 1) * step),
    )


def parameterize_by_slicing(track, spans):
    """Per-word feature tuples of a track, each word's samples cut out on their own.

    A word keeps the samples with times in [start, end), with the same
    1e-9-step slack as the loader's window. Returns (list of (span,
    features), number of dropped words).
    """
    import math

    words, dropped = [], 0
    for span in spans:
        rel_start = (span.start - track.start_time) / track.step
        rel_end = (span.end - track.start_time) / track.step
        i0 = max(0, math.ceil(rel_start - 1e-9 / track.step))
        i1 = min(len(track), math.ceil(rel_end - 1e-9 / track.step))
        if i1 - i0 < 2:
            dropped += 1
            continue
        words.append((span, word_features_by_sorting(track.values[i0:i1], track.step)))
    return words, dropped


# ---------------------------------------------------------------------------
# reference implementations of the pitch tracker and the F0 CSV writer: one
# frame at a time with its own FFTs and a candidate generator, and one
# formatted row at a time


def _frame_candidates(acf_ratio, lag_min, lag_max):
    """Local autocorrelation peaks in [lag_min, lag_max], parabolic-refined.

    Yields (refined_lag, peak_value) pairs.
    """
    for lag in range(lag_min, lag_max + 1):
        r0, r1, r2 = acf_ratio[lag - 1], acf_ratio[lag], acf_ratio[lag + 1]
        if not (r1 > r0 and r1 >= r2):
            continue
        denom = r0 - 2.0 * r1 + r2
        if denom >= 0.0:  # flat or degenerate; keep the integer peak
            yield float(lag), float(r1)
            continue
        delta = 0.5 * (r0 - r2) / denom
        delta = max(-0.5, min(0.5, delta))
        value = r1 - 0.25 * (r0 - r2) * delta
        yield lag + delta, float(value)


def estimate_f0_by_frames(wave, config=None):
    """``pitch.estimate_f0`` computed one frame at a time.

    Each 10 ms frame gets its own RMS gate, two 1-D FFTs and a Python scan
    over every lag in the search range; the best candidate is kept with a
    strict ``>``, so the first of equal strengths wins.
    """
    import math

    from f0entrain.errors import ComputeError, ValidationError
    from f0entrain.pitch import (
        OCTAVE_COST, RMS_GATE, TIME_STEP_S, VOICING_THRESHOLD, WINDOW_S, PitchConfig,
    )
    from f0entrain.types import F0Track

    config = PitchConfig() if config is None else config
    fs = wave.sample_rate
    x = wave.samples
    if not config.ceiling < fs / 2:
        raise ValidationError(
            f"need pitch ceiling < sample_rate/2, got ceiling={config.ceiling}, rate={fs}"
        )
    frame_len = int(round(WINDOW_S * fs))
    if frame_len < 8 or x.size < frame_len:
        raise ComputeError(
            f"wave too short: {x.size} samples < one {WINDOW_S}s analysis window"
        )

    lag_min = max(2, math.ceil(fs / config.ceiling))
    lag_max = min(frame_len - 2, math.floor(fs / config.floor))
    if lag_max <= lag_min:
        raise ValidationError("pitch search range is empty for this window/rate")

    n_frames = int(math.floor((x.size - frame_len) / (TIME_STEP_S * fs))) + 1
    window = np.hanning(frame_len)

    # long enough that no lag read wraps around: lags 0 .. lag_max + 1 of a frame_len frame
    fft_len = 1 << int(math.ceil(math.log2(frame_len + lag_max + 2)))
    win_spec = np.fft.rfft(window, fft_len)
    acf_win = np.fft.irfft(win_spec * np.conj(win_spec), fft_len)[: lag_max + 2]
    acf_win = acf_win / acf_win[0]

    global_ms = float(np.mean(x * x))
    values = np.full(n_frames, np.nan)  # NaN: unvoiced

    for i in range(n_frames):
        start = int(round(i * TIME_STEP_S * fs))
        frame = x[start : start + frame_len]
        frame_ms = float(np.mean(frame * frame))
        if global_ms <= 0.0 or frame_ms < (RMS_GATE**2) * global_ms:
            continue
        windowed = (frame - frame.mean()) * window
        energy = float(np.add.reduce(windowed * windowed))
        if energy <= 0.0:
            continue
        spec = np.fft.rfft(windowed, fft_len)
        acf = np.fft.irfft(spec * np.conj(spec), fft_len)[: lag_max + 2]
        acf_ratio = (acf / energy) / acf_win

        best_f0 = 0.0
        best_strength = -np.inf
        best_value = 0.0
        for lag, value in _frame_candidates(acf_ratio, lag_min, lag_max):
            strength = value - OCTAVE_COST * math.log2(lag / fs * config.floor)
            if strength > best_strength:
                best_strength = strength
                best_value = value
                best_f0 = fs / lag
        if best_value >= VOICING_THRESHOLD:
            values[i] = best_f0

    return F0Track(
        start_time=frame_len / (2.0 * fs),
        step=TIME_STEP_S,
        values=values,
    )


def write_f0_csv_by_rows(track, path):
    """``ingest.write_f0_csv`` with one f-string per row."""
    from pathlib import Path

    t0, step = track.start_time, track.step
    rows = [
        f"{t0 + i * step:.6f}," + ("" if np.isnan(f0) else f"{f0:.6f}")
        for i, f0 in enumerate(track.values)
    ]
    Path(path).write_text("time_s,f0_hz\n" + "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# reference implementation of the entrainment layer's bookkeeping: e_raw and
# the speaker-scope pools rescan every sample, the surrogate search scans the
# whole manifest for each model rendition, and each normalization mode has
# its own branch


def _e_raw_by_rescan(imitator, feature, samples) -> float:
    from f0entrain.errors import ComputeError

    values = [s.distance for s in samples if s.imitator == imitator and s.feature == feature]
    if not values:
        raise ComputeError(f"no DTW samples for speaker {imitator!r}, feature {feature!r}")
    return float(np.mean(values))


def _contour(contours, rendition, f):
    """Feature ``f``'s contour of one rendition, sliced from the store on its own."""
    lo, hi = contours.bounds[rendition], contours.bounds[rendition + 1]
    return contours.table[2 + f, lo:hi]


def _other_distance_by_scan(target, feature, manifest, contours, pool):
    from f0entrain.entrain import dtw_distance
    from f0entrain.errors import ComputeError
    from f0entrain.features import FEATURE_NAMES

    f = FEATURE_NAMES.index(feature)

    partner = manifest.partner_of(target)
    target_sex = manifest.speaker(target).sex
    # event e's imitation is rendition 2e, its model 2e + 1
    imitated = {
        rec.index: _contour(contours, 2 * e, f)
        for e, rec in enumerate(manifest.utterances) if rec.imitator == target
    }
    if not imitated:
        raise ComputeError(f"speaker {target!r} has no imitation contours")
    candidates = [
        s.id for s in manifest.speakers
        if s.id not in (target, partner)
        and (pool == "all" or (s.sex is not None and s.sex == target_sex))
    ]
    if not candidates:
        raise ComputeError(f"empty surrogate pool for speaker {target!r} (pool={pool})")
    per_candidate = []
    for cand in candidates:
        distances = []
        for k in sorted(imitated):
            for e, rec in enumerate(manifest.utterances):
                if rec.model == cand and rec.index == k:
                    distances.append(dtw_distance(imitated[k], _contour(contours, 2 * e + 1, f)))
        if distances:
            per_candidate.append(float(np.mean(distances)))
    if not per_candidate:
        raise ComputeError(
            f"no surrogate candidate shares utterance indices with speaker {target!r}"
        )
    return float(np.mean(per_candidate)), len(per_candidate)


def measure_corpus_by_rescans(
    manifest,
    contours,
    surrogate_pool="same-sex",
    norm="sd",
    norm_scope="corpus",
    with_surrogates=True,
    with_normalization=True,
    empty_outlier_rows=False,
):
    """``entrain.measure_corpus`` with a rescan of the samples per speaker.

    A speaker and feature whose samples all fall outside the corpus-wide
    fences raises ComputeError, or, with ``empty_outlier_rows``, gets
    ``e_opt`` NaN and ``n_used`` 0.
    """
    from types import SimpleNamespace

    from f0entrain.entrain import (
        CorpusMeasurement,
        dtw_distance,
        inner_dyad_distance,
        normalize_samples,
    )
    from f0entrain.errors import ComputeError
    from f0entrain.features import FEATURE_NAMES

    # one record per event and feature, each contour looked up on its own:
    # event e's imitation is rendition 2e, its model 2e + 1
    samples = [
        SimpleNamespace(
            imitator=rec.imitator,
            feature=feature,
            distance=dtw_distance(
                _contour(contours, 2 * e, f), _contour(contours, 2 * e + 1, f)
            ),
        )
        for e, rec in enumerate(manifest.utterances)
        for f, feature in enumerate(FEATURE_NAMES)
    ]
    speakers = sorted({rec.imitator for rec in manifest.utterances})

    by_feature = {f: [] for f in FEATURE_NAMES}
    for s in samples:
        by_feature[s.feature].append(s)

    corpus_norms = {}
    if with_normalization and norm_scope == "corpus":
        for feature in FEATURE_NAMES:
            corpus_norms[feature] = normalize_samples(
                np.array([s.distance for s in by_feature[feature]])
            )

    # (e_raw, e_opt, n_used, e_opt_alt) by speaker and feature; None is no value
    scores = {}
    for speaker in speakers:
        for feature in FEATURE_NAMES:
            feature_samples = by_feature[feature]
            raw_value = _e_raw_by_rescan(speaker, feature, feature_samples)
            if not with_normalization:
                n_own = sum(1 for s in feature_samples if s.imitator == speaker)
                scores[speaker, feature] = (raw_value, None, n_own, None)
                continue
            if norm_scope == "speaker":
                pool_samples = [s for s in feature_samples if s.imitator == speaker]
                normed = normalize_samples(np.array([s.distance for s in pool_samples]))
            else:
                pool_samples = feature_samples
                normed = corpus_norms[feature]
            owner = np.array([s.imitator == speaker for s in pool_samples])
            keep_owner = normed.kept & owner
            if not keep_owner.any():
                if empty_outlier_rows:
                    scores[speaker, feature] = (raw_value, None, 0, None)
                    continue
                raise ComputeError(
                    f"all samples of speaker {speaker!r} removed as outliers "
                    f"for feature {feature!r}"
                )
            own_z = normed.z[owner[normed.kept]]
            n_retained_pool = int(np.count_nonzero(normed.kept))
            e_opt_sd = float(own_z.mean())
            e_opt_se = e_opt_sd * float(np.sqrt(n_retained_pool))
            scores[speaker, feature] = (
                raw_value,
                e_opt_sd,
                int(np.count_nonzero(keep_owner)),
                e_opt_se if norm == "se" else None,
            )

    def by_speaker(column, dtype=float):
        values = [[scores[s, f][column] for f in FEATURE_NAMES] for s in speakers]
        values = [[np.nan if v is None else v for v in row] for row in values]
        return np.array(values, dtype=dtype).reshape(len(speakers), len(FEATURE_NAMES))

    partner, other, n_surrogates = [], [], []
    if with_surrogates:
        for speaker in speakers:
            partner.append([scores[speaker, feature][0] for feature in FEATURE_NAMES])
            other.append([])
            for feature in FEATURE_NAMES:
                distance, n_sur = _other_distance_by_scan(
                    speaker, feature, manifest, contours, surrogate_pool
                )
                other[-1].append(distance)
            n_surrogates.append(n_sur)

    dyads, inner = [], []
    for a, b in manifest.dyads:
        if a not in speakers or b not in speakers:
            continue
        dyads.append((a, b))
        inner.append([
            inner_dyad_distance(scores[a, feature][0], scores[b, feature][0])
            for feature in FEATURE_NAMES
        ])

    return CorpusMeasurement(
        samples=np.array([[s.distance for s in by_feature[f]] for f in FEATURE_NAMES]),
        speakers=tuple(speakers),
        e_raw=by_speaker(0),
        e_opt=by_speaker(1),
        e_opt_alt=by_speaker(3),
        n_used=by_speaker(2, dtype=np.int64),
        partner_distance=np.array(partner).reshape(len(partner), len(FEATURE_NAMES)),
        other_distance=np.array(other).reshape(len(other), len(FEATURE_NAMES)),
        n_surrogates=np.array(n_surrogates, dtype=np.int64),
        dyads=tuple(dyads),
        inner_dyad=np.array(inner).reshape(len(dyads), len(FEATURE_NAMES)),
    )
