#include "sim/models.h"

#include <algorithm>
#include <cmath>

namespace swift {

double NetworkModel::ConnLatency(double total_conns) const {
  if (total_conns <= congestion_onset) return base_conn_latency;
  if (total_conns >= congestion_full) return congested_conn_latency;
  // Log-linear ramp between onset and saturation.
  const double f = (std::log(total_conns) - std::log(congestion_onset)) /
                   (std::log(congestion_full) - std::log(congestion_onset));
  return base_conn_latency +
         f * (congested_conn_latency - base_conn_latency);
}

double NetworkModel::RetransRate(ShuffleKind kind, double total_conns) const {
  if (kind != ShuffleKind::kDirect) return base_retrans;
  if (total_conns <= congestion_onset) return base_retrans;
  if (total_conns >= congestion_full) return max_retrans;
  const double f = (std::log(total_conns) - std::log(congestion_onset)) /
                   (std::log(congestion_full) - std::log(congestion_onset));
  return base_retrans + f * (max_retrans - base_retrans);
}

double NetworkModel::ConnectionSetupTime(ShuffleKind kind, int64_t producers,
                                         int64_t consumers,
                                         int64_t machines) const {
  const double total = static_cast<double>(
      ShuffleConnections(kind, producers, consumers, machines));
  const double lat = ConnLatency(total);
  switch (kind) {
    case ShuffleKind::kDirect:
      // Each producer opens one connection per consumer, partially
      // overlapped with the transfer.
      return static_cast<double>(consumers) * lat * conn_setup_overlap;
    case ShuffleKind::kLocal: {
      // One connection to the local Cache Worker per task, plus the
      // worker-to-worker mesh amortized over machines.
      const double mesh = static_cast<double>(machines - 1) * lat;
      return lat + mesh / std::max<double>(1.0, static_cast<double>(machines));
    }
    case ShuffleKind::kRemote:
      // Each consumer pulls from up to Y writer-side workers.
      return static_cast<double>(machines) * lat * conn_setup_overlap;
  }
  return 0.0;
}

double NetworkModel::TransferTime(ShuffleKind kind, double bytes,
                                  int64_t producers, int64_t consumers,
                                  int64_t machines) const {
  const double total_conns = static_cast<double>(
      ShuffleConnections(kind, producers, consumers, machines));
  const double r = RetransRate(kind, total_conns);
  const double wire =
      bytes / (bw_per_machine * std::max<int64_t>(1, machines));
  const double copies =
      static_cast<double>(ExtraMemoryCopies(kind)) * bytes /
      (copy_bw * std::max<int64_t>(1, machines));
  // Reader-side fan-in: many sources hammering one endpoint degrade
  // goodput (TCP incast). Direct: every producer per consumer; Remote:
  // every writer-side worker per consumer; Local: one local worker.
  double fan_in_conns = 0.0;
  switch (kind) {
    case ShuffleKind::kDirect:
      fan_in_conns = static_cast<double>(producers) *
                     static_cast<double>(consumers);
      break;
    case ShuffleKind::kRemote:
      fan_in_conns = static_cast<double>(consumers) *
                     static_cast<double>(machines);
      break;
    case ShuffleKind::kLocal:
      fan_in_conns = static_cast<double>(consumers);
      break;
  }
  const double incast = incast_penalty * fan_in_conns / congestion_full;
  return wire * (1.0 + retrans_penalty * r + incast) + copies;
}

namespace {
double EffectiveSeeks(double partitions, double superlinear_onset) {
  return partitions * (1.0 + partitions / superlinear_onset);
}
}  // namespace

double DiskModel::WriteTime(double bytes, int64_t partitions,
                            int64_t machines) const {
  const double m = std::max<double>(1.0, static_cast<double>(machines));
  return bytes / (write_bw_per_machine * m) +
         EffectiveSeeks(static_cast<double>(partitions),
                        superlinear_partitions) *
             per_partition_seek / (seek_parallelism * m);
}

double DiskModel::ReadTime(double bytes, int64_t partitions,
                           int64_t machines) const {
  const double m = std::max<double>(1.0, static_cast<double>(machines));
  return bytes / (read_bw_per_machine * m) +
         EffectiveSeeks(static_cast<double>(partitions),
                        superlinear_partitions) *
             per_partition_seek / (seek_parallelism * m);
}

double DiskModel::SinkWriteTime(double bytes, int64_t machines) const {
  const double m = std::max<double>(1.0, static_cast<double>(machines));
  return bytes / (sink_write_bw_per_machine * m);
}

double TaskModel::ProcessTime(double input_bytes_per_task,
                              double cpu_cost_factor) const {
  return task_overhead +
         input_bytes_per_task * cpu_cost_factor / process_rate;
}

bool CompressionModel::Applies(ShuffleKind kind, double bytes,
                               double partitions) const {
  return enabled && CompressesEdge(kind, /*pipelined=*/false,
                                   bytes / std::max(1.0, partitions));
}

double CompressionModel::WireBytes(ShuffleKind kind, double bytes,
                                   double partitions) const {
  return Applies(kind, bytes, partitions) ? bytes * ratio : bytes;
}

double CompressionModel::CompressTime(ShuffleKind kind, double bytes,
                                      double partitions,
                                      int64_t machines) const {
  if (!Applies(kind, bytes, partitions)) return 0.0;
  const double m = std::max<double>(1.0, static_cast<double>(machines));
  return bytes / (compress_bw * m);
}

double CompressionModel::DecompressTime(ShuffleKind kind, double bytes,
                                        double partitions,
                                        int64_t machines) const {
  if (!Applies(kind, bytes, partitions)) return 0.0;
  const double m = std::max<double>(1.0, static_cast<double>(machines));
  return bytes / (decompress_bw * m);
}

}  // namespace swift
