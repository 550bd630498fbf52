/**
 * @file
 * Implementation of the telemetry record serializer and JSONL sink.
 */

#include "obs/telemetry.h"

#include <cerrno>
#include <cstring>

#include "common/fileutil.h"
#include "obs/jsonw.h"
#include "obs/metrics.h"

namespace cq::obs {

std::string
StepTelemetry::toJson() const
{
    std::string out;
    out.reserve(512);
    out += "{\"step\":";
    out += std::to_string(step);
    out += ",\"loss\":";
    appendJsonNumber(out, loss);
    out += ",\"grad_max_abs\":";
    appendJsonNumber(out, gradMaxAbs);
    out += ",\"discarded\":";
    out += discarded ? "true" : "false";
    out += ",\"step_us\":";
    appendJsonFixed(out, stepUs, 3);
    out += ",\"phases_us\":{\"fwd\":";
    appendJsonFixed(out, fwdUs, 3);
    out += ",\"bwd\":";
    appendJsonFixed(out, bwdUs, 3);
    out += ",\"quant\":";
    appendJsonFixed(out, quantUs, 3);
    out += ",\"optim\":";
    appendJsonFixed(out, optimUs, 3);
    out += ",\"ckpt\":";
    appendJsonFixed(out, ckptUs, 3);
    out += '}';
    if (!layerFormats.empty()) {
        out += ",\"formats\":{";
        bool firstLayer = true;
        for (const auto &layer : layerFormats) {
            if (!firstLayer)
                out += ',';
            firstLayer = false;
            appendJsonString(out, layer.first);
            out += ":{";
            bool firstBits = true;
            for (const auto &bits : layer.second) {
                if (!firstBits)
                    out += ',';
                firstBits = false;
                appendJsonString(out,
                                 "int" + std::to_string(bits.first));
                out += ':';
                out += std::to_string(bits.second);
            }
            out += '}';
        }
        out += "},\"weight_quant_rmse\":{\"mean\":";
        appendJsonNumber(out, weightQuantRmseMean);
        out += ",\"max\":";
        appendJsonNumber(out, weightQuantRmseMax);
        out += '}';
    }
    if (!counterDeltas.empty()) {
        out += ",\"counter_deltas\":{";
        bool first = true;
        for (const auto &kv : counterDeltas) {
            if (!first)
                out += ',';
            first = false;
            appendJsonString(out, kv.first);
            out += ':';
            appendJsonNumber(out, kv.second);
        }
        out += '}';
    }
    out += '}';
    return out;
}

JsonlTelemetrySink::JsonlTelemetrySink(const std::string &path)
{
    file_ = io::fopenFp("obs.telemetry.open", path, "wb");
    if (file_ == nullptr)
        enterDegraded("open");
}

JsonlTelemetrySink::~JsonlTelemetrySink()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

void
JsonlTelemetrySink::enterDegraded(const char *what)
{
    static Counter &errors =
        MetricRegistry::instance().counter("obs.write_errors");
    errors.inc();
    // Warn exactly once per sink: degraded mode is sticky, so this
    // transition cannot repeat and the log is not flooded by a full
    // disk emitting one error per step.
    std::fprintf(stderr,
                 "[warn] telemetry: %s failed (%s); dropping further "
                 "records\n",
                 what, std::strerror(errno));
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
    degraded_ = true;
}

void
JsonlTelemetrySink::onStep(const StepTelemetry &record)
{
    if (file_ == nullptr) {
        if (degraded_)
            ++dropped_;
        return;
    }
    std::string line = record.toJson();
    line += '\n';
    errno = 0;
    if (io::fwriteFp("obs.telemetry.write", line.data(), line.size(),
                     file_) != line.size() ||
        io::fflushFp("obs.telemetry.flush", file_) != 0) {
        enterDegraded("write");
        ++dropped_;
        return;
    }
    ++records_;
}

} // namespace cq::obs
