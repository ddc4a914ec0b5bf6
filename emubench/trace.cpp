#include "trace.hpp"

#include <cstdio>

namespace emubench::trace {

namespace {
thread_local ThreadLog* t_log = nullptr;
thread_local std::uint64_t t_op = 0;
}  // namespace

const char* to_string(Name n) noexcept {
  switch (n) {
    case Name::kBody: return "scenarios.body";
    case Name::kFfSocket: return "apps.ffops.socket";
    case Name::kFfBind: return "apps.ffops.bind";
    case Name::kFfListen: return "apps.ffops.listen";
    case Name::kFfAccept: return "apps.ffops.accept";
    case Name::kFfConnect: return "apps.ffops.connect";
    case Name::kFfWrite: return "apps.ffops.write";
    case Name::kFfRead: return "apps.ffops.read";
    case Name::kFfWritev: return "apps.ffops.writev";
    case Name::kFfReadv: return "apps.ffops.readv";
    case Name::kFfAcceptBatch: return "apps.ffops.accept_batch";
    case Name::kFfZc: return "apps.ffops.zc";
    case Name::kFfUring: return "apps.ffops.uring";
    case Name::kFfEpoll: return "apps.ffops.epoll";
    case Name::kFfClose: return "apps.ffops.close";
    case Name::kFfOther: return "apps.ffops.other";
    case Name::kRunOnce: return "fstack.run_once";
    case Name::kArbiterWait: return "sim.arbiter.wait";
    case Name::kRingTurn: return "apps.ring.turn";
    case Name::kCount: break;
  }
  return "?";
}

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

ThreadLog& Tracer::local() {
  if (t_log == nullptr) {
    auto log = std::make_unique<ThreadLog>();
    log->spans.reserve(1024);
    std::lock_guard lk(mu_);
    log->thread = "thread" + std::to_string(logs_.size());
    t_log = log.get();
    logs_.push_back(std::move(log));
  }
  return *t_log;
}

void Tracer::name_thread(const std::string& name) {
  if (!on()) return;
  ThreadLog& log = local();
  std::lock_guard lk(mu_);
  log.thread = name;
}

std::vector<std::uint64_t> Tracer::sum(
    std::uint64_t (ThreadLog::*field)[ThreadLog::kNames]) const {
  std::vector<std::uint64_t> out(ThreadLog::kNames, 0);
  std::lock_guard lk(mu_);
  for (const auto& log : logs_) {
    for (std::size_t i = 0; i < ThreadLog::kNames; ++i) {
      out[i] += ((*log).*field)[i];
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tspan\tname\tstart_ns\tend_ns\tparent\top\n");
  std::lock_guard lk(mu_);
  for (const auto& log : logs_) {
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Record& r = log->spans[i];
      std::fprintf(f, "%s\t%zu\t%s\t%llu\t%llu\t%d\t%llu\n",
                   log->thread.c_str(), i, to_string(r.name),
                   static_cast<unsigned long long>(r.t0),
                   static_cast<unsigned long long>(r.t1), r.parent,
                   static_cast<unsigned long long>(r.op));
    }
    if (log->dropped > 0) {
      std::fprintf(f, "# %s: %llu spans past the per-thread cap not kept\n",
                   log->thread.c_str(),
                   static_cast<unsigned long long>(log->dropped));
    }
  }
  return std::fclose(f) == 0;
}

void set_op(std::uint64_t op) noexcept { t_op = op; }

void Span::open(Name n) {
  log_ = &Tracer::get().local();
  name_ = n;
  const std::int32_t parent =
      log_->open.empty() ? -1 : log_->open.back().idx;
  std::int32_t idx = -1;
  t0_ = now_ns();
  if (log_->spans.size() < ThreadLog::kMaxSpans) {
    idx = static_cast<std::int32_t>(log_->spans.size());
    log_->spans.push_back(Record{t0_, 0, t_op, parent, n});
  } else {
    ++log_->dropped;
  }
  log_->open.push_back({0, idx});
}

void Span::close() {
  const std::uint64_t t1 = now_ns();
  const std::uint64_t d = t1 - t0_;
  const ThreadLog::Open me = log_->open.back();
  log_->open.pop_back();
  if (me.idx >= 0) log_->spans[static_cast<std::size_t>(me.idx)].t1 = t1;
  if (!log_->open.empty()) log_->open.back().child_ns += d;
  const auto k = static_cast<std::size_t>(name_);
  log_->self[k] += d > me.child_ns ? d - me.child_ns : 0;
  log_->total[k] += d;
  log_->count[k] += 1;
}

}  // namespace emubench::trace
