/**
 * @file
 * Per-step training telemetry: one structured record per trainer step,
 * delivered through a pluggable sink. The JSONL sink writes one JSON
 * object per line, so a run's telemetry can be joined against the
 * trace (by wall time) and the structured log (CQ_LOG_JSONL) with
 * ordinary line tools.
 *
 * Telemetry is observational only: records are assembled from values
 * the trainer already computed (or from read-only extra passes) and
 * never feed back into training state, so a run with telemetry
 * enabled trains bitwise identically to one without.
 */

#ifndef CQ_OBS_TELEMETRY_H
#define CQ_OBS_TELEMETRY_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

namespace cq::obs {

/** One training step as the telemetry layer sees it. */
struct StepTelemetry
{
    std::uint64_t step = 0;
    double loss = 0.0;
    /** Max |dW| across every weight-gradient tensor of the step. */
    double gradMaxAbs = 0.0;
    /** True when a guard trip discarded the step's update. */
    bool discarded = false;

    /** @name Wall-clock phase breakdown (microseconds) */
    /** @{ */
    double stepUs = 0.0;
    double fwdUs = 0.0;
    double bwdUs = 0.0;
    /** Weight quantization (master -> compute copies). Activation /
     *  gradient quantization runs inside fwd/bwd. */
    double quantUs = 0.0;
    double optimUs = 0.0;
    double ckptUs = 0.0;
    /** @} */

    /**
     * E2BQM chosen formats for the step's weight quantization:
     * layer name -> (chosen bit width -> blocks that chose it).
     */
    std::map<std::string, std::map<int, std::uint64_t>> layerFormats;
    /** Mean / max reconstruction RMSE of the weight quantization. */
    double weightQuantRmseMean = 0.0;
    double weightQuantRmseMax = 0.0;

    /**
     * Delta of every resilience counter (guard.* / faults.* / ecc.* /
     * abft.*) that moved this step — rollbacks, ECC corrections, ABFT
     * recomputes, checkpoint commits — so step-latency spikes can be
     * correlated with the machinery that caused them.
     */
    std::map<std::string, double> counterDeltas;

    /** Render as one JSON object (no trailing newline). */
    std::string toJson() const;
};

/** Receiver of per-step records. */
class TelemetrySink
{
  public:
    virtual ~TelemetrySink() = default;
    virtual void onStep(const StepTelemetry &record) = 0;
};

/**
 * Appends one JSON line per step to a file, flushed per record so a
 * crash loses at most the in-flight line.
 *
 * Write failures never propagate to the trainer: on the first failed
 * write/flush the sink warns once, bumps the "obs.write_errors"
 * counter, closes the file, and enters a *degraded* mode that drops
 * (and counts) every further record. Telemetry is observational — a
 * full disk under the telemetry path must not abort training.
 */
class JsonlTelemetrySink : public TelemetrySink
{
  public:
    explicit JsonlTelemetrySink(const std::string &path);
    ~JsonlTelemetrySink() override;

    void onStep(const StepTelemetry &record) override;

    bool ok() const { return file_ != nullptr; }
    std::uint64_t recordsWritten() const { return records_; }

    /** True once a write failure switched the sink to dropping. */
    bool degraded() const { return degraded_; }
    /** Records dropped since entering degraded mode. */
    std::uint64_t droppedRecords() const { return dropped_; }

    JsonlTelemetrySink(const JsonlTelemetrySink &) = delete;
    JsonlTelemetrySink &operator=(const JsonlTelemetrySink &) = delete;

  private:
    void enterDegraded(const char *what);

    std::FILE *file_ = nullptr;
    std::uint64_t records_ = 0;
    std::uint64_t dropped_ = 0;
    bool degraded_ = false;
};

} // namespace cq::obs

#endif // CQ_OBS_TELEMETRY_H
