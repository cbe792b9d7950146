#include "svc/group_commit.h"

#include "common/event_log.h"

namespace treevqa {

std::uint64_t
commitJobRecords(ResultStore &store, const std::string &sweepDir,
                 const std::vector<JobResult> &records,
                 const std::function<void(std::size_t)> &onFailed)
{
    if (records.empty())
        return 0;
    const std::uint64_t bytes = store.append(records);
    retireCheckpoints(sweepDir, records);
    for (std::size_t i = 0; i < records.size(); ++i) {
        const JobResult &record = records[i];
        if (!record.completed) {
            if (record.failed && onFailed)
                onFailed(i);
            continue;
        }
        JsonValue detail = JsonValue::object();
        detail.set("name", JsonValue(record.spec.name));
        detail.set("resumed", JsonValue(record.resumed));
        EventLog::instance().emit(event_type::kJobCompleted,
                                  record.fingerprint, std::move(detail));
    }
    EventLog::instance().flush();
    return bytes;
}

} // namespace treevqa
