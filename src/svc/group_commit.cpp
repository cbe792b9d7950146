#include "svc/group_commit.h"

#include "common/event_log.h"

namespace treevqa {

StoreAppend
commitJobRecords(ResultStore &store, const std::string &sweepDir,
                 const std::vector<JobResult> &records,
                 const std::function<void(std::size_t)> &onFailed)
{
    if (records.empty())
        return {};
    const StoreAppend appended = store.append(records);
    // Only the records that landed whole are published; a torn one
    // keeps its checkpoints and its job stays pending.
    if (appended.landed == records.size())
        retireCheckpoints(sweepDir, records);
    else
        retireCheckpoints(sweepDir,
                          std::vector<JobResult>(
                              records.begin(),
                              records.begin()
                                  + static_cast<std::ptrdiff_t>(
                                      appended.landed)));
    for (std::size_t i = 0; i < appended.landed; ++i) {
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
    return appended;
}

} // namespace treevqa
